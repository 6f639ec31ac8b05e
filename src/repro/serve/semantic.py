"""Semantic serving control plane: canonicalizer and result cache.

TAG serving pays an LM synthesis + execution cost per request, but at
scale most questions are near-duplicates of questions already answered.
This module adds the cross-request control plane:

- :func:`canonicalize` — a deterministic normalizer over
  :mod:`repro.text.tokenize` (case folding, stopword dropping, number
  and light entity normalization, stable ordering of order-insensitive
  conjunction pairs) producing the *canonical form* that keys
  everything downstream;

- :class:`SemanticResultCache` — a cache of full
  :class:`~repro.core.tag.TAGResult`\\ s keyed on the canonical text,
  with an exact-canonical fast path, near-match lookup via
  :class:`~repro.embed.HashingEmbedder` + :class:`~repro.vector`
  cosine similarity above a threshold, and explicit invalidation on
  data/catalog change.

Determinism.  Cache lookups run sequentially on the serve thread,
*ahead of admission* (see :class:`~repro.serve.server.TagServer`), so
the hit/miss/coalesce partition of a request stream is a pure function
of the stream and the cache state — never of the worker count or OS
scheduling.  Stores happen after the run, in request order.

Thread safety.  The cache guards all state behind one lock with
:mod:`repro.obs.racecheck` instrumentation: it may be shared across
concurrently serving servers.  It is a ``SHARED_ROOTS`` class of the
static concurrency analyzer (``python -m repro lint --conc``) and
replays clean under the dynamic race checker at workers 1/4/8.

Metering: every event goes through one
:class:`~repro.obs.meter.Meter` into the bound
:class:`~repro.lm.usage.Usage` (``semcache_*``), which surfaces on the
:class:`~repro.serve.server.ServeReport` — and it happens at exactly
one seam per event (the lookup/invalidation paths below), so the
disabled-cache path (``capacity == 0``) meters one miss per lookup,
never a miss at ``get`` plus a drop at ``put``.  ``semcache_hits``
counts requests served on an exact canonical-form match (in-run
duplicate coalescing included), ``semcache_near_hits`` those served on
an above-threshold embedding match, ``semcache_misses`` lookups that
found nothing, ``semcache_invalidations`` entries evicted by an
explicit invalidation.
"""

from __future__ import annotations

import copy
import re
import threading
from dataclasses import dataclass

from repro.core.tag import TAGResult
from repro.embed import HashingEmbedder
from repro.lm.usage import Usage
from repro.obs import racecheck, trace
from repro.obs.meter import Meter
from repro.serve.cache import LRUCache
from repro.text.tokenize import STOPWORDS, tokens
from repro.vector import FlatIndex

# ---------------------------------------------------------------------------
# canonicalizer
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"^\d+(?:\.\d+)?$")
#: Coordinating tokens whose neighbours are order-insensitive.
_CONJUNCTIONS = frozenset({"and", "or"})


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical form of one natural-language request.

    ``text`` is the joined canonical tokens (the cache key
    component), ``raw`` the input it came from.  ``degenerate`` marks a
    request with no content tokens at all (empty, punctuation-only,
    stopword-only): such a form carries no information to key on —
    distinct degenerate requests would collapse onto one key — so the
    cache refuses to store or match it (the embedder-level
    twin of this contract is
    :meth:`repro.embed.HashingEmbedder.is_degenerate`).
    """

    text: str
    tokens: tuple[str, ...]
    raw: str

    @property
    def degenerate(self) -> bool:
        return not self.tokens


def _normalize_number(token: str) -> str:
    """Canonical digits: ``007`` -> ``7``, ``3.50`` -> ``3.5``."""
    if "." in token:
        whole, _, frac = token.partition(".")
        frac = frac.rstrip("0")
        whole = whole.lstrip("0") or "0"
        return f"{whole}.{frac}" if frac else whole
    return token.lstrip("0") or "0"


def _fold(token: str) -> str:
    """Light entity normalization: possessives and regular plurals.

    Deliberately tiny and idempotent (``_fold(_fold(x)) == _fold(x)``):
    just enough to make "movie reviews" and "movies review" share a
    form, never a stemmer.  The trailing ``y -> ie`` rewrite gives the
    two regular plural families one shared form — ``city``/``cities``
    meet at ``citie`` exactly where ``movie``/``movies`` meet at
    ``movie`` — without a lexicon to tell ``-ies`` plurals apart.
    """
    if token.endswith("'s"):
        token = token[:-2]
    elif token.endswith("s'"):
        token = token[:-1]
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        token = token[:-1]
    if len(token) > 3 and token.endswith("y"):
        token = token[:-1] + "ie"
    return token


def canonicalize(request: str) -> CanonicalForm:
    """Deterministic canonical form of a natural-language request.

    The pipeline, in order (each step idempotent on its own output, so
    ``canonicalize(canonicalize(x).text)`` is a fixed point — property-
    tested):

    1. word tokenization with case folding (punctuation and whitespace
       never reach the form);
    2. number normalization (leading/trailing-zero stripping);
    3. stable ordering of order-insensitive *conjunction pairs*: in
       ``x and y`` / ``x or y`` with single-token operands, the operands
       are sorted, so "comedy and romance" keys like "romance and
       comedy" — word order elsewhere is preserved (it carries meaning:
       "dogs bite men" must not collapse with "men bite dogs");
    4. stopword dropping (:data:`repro.text.tokenize.STOPWORDS`);
    5. light entity folding (possessives, regular plurals), dropping
       any token folding turns into a stopword.
    """
    raw = [
        _normalize_number(token) if _NUMBER_RE.match(token) else token
        for token in tokens(request)
    ]
    for position in range(1, len(raw) - 1):
        if raw[position] not in _CONJUNCTIONS:
            continue
        left, right = raw[position - 1], raw[position + 1]
        if left in STOPWORDS or right in STOPWORDS:
            continue
        if _fold(left) > _fold(right):
            raw[position - 1], raw[position + 1] = right, left
    folded = [
        _fold(token) for token in raw if token not in STOPWORDS
    ]
    kept = tuple(
        token for token in folded if token and token not in STOPWORDS
    )
    return CanonicalForm(text=" ".join(kept), tokens=kept, raw=request)


# ---------------------------------------------------------------------------
# semantic result cache
# ---------------------------------------------------------------------------

#: Embedding width of the near-match index.
_DIMENSIONS = 256
#: Live candidates the near-match search ranks beyond tombstones.
_PROBE = 8


@dataclass
class SemanticHit:
    """One cache hit: the served result plus lookup provenance."""

    #: A private copy of the stored result, its ``request`` rewritten
    #: to the incoming request (a near hit may have been computed for a
    #: paraphrase).
    result: TAGResult
    #: ``"exact"`` (canonical fast path) or ``"near"`` (embedding
    #: match above the threshold).
    via: str
    #: Cosine similarity of the match; 1.0 on the exact path.
    similarity: float
    #: The request whose execution populated the entry.
    source_request: str


@dataclass
class _Entry:
    """One stored result and the request that produced it."""

    request: str
    result: TAGResult
    #: Row of this entry's embedding in the vector index.
    row: int


def detached_copy(result: TAGResult, request: str) -> TAGResult:
    """A detached copy safe to hand out (or keep) without aliasing.

    The trace root is dropped: it belongs to the run that recorded it,
    and two identically-answered requests compare equal without it.
    """
    trace_root = result.trace
    result.trace = None
    try:
        duplicate = copy.deepcopy(result)
    finally:
        result.trace = trace_root
    duplicate.request = request
    return duplicate


class SemanticResultCache:
    """Cross-request cache of full TAGResults keyed on canonical form.

    The key is the canonical text: one cache serves one pipeline over
    one catalog, and after a data/catalog change :meth:`invalidate`
    evicts every entry (metered).  ``capacity == 0`` disables the
    cache; every lookup then meters exactly one miss — the single
    audited seam for the disabled path (see
    :class:`repro.serve.cache.LRUCache`'s metering note).

    Near matching embeds the canonical form with
    :class:`~repro.embed.HashingEmbedder` into a
    :class:`~repro.vector.FlatIndex` and accepts the best live entry at
    or above ``threshold`` cosine similarity.  Degenerate canonical
    forms are uncacheable in both directions: never stored, never
    matched.
    """

    def __init__(
        self,
        capacity: int = 256,
        threshold: float = 0.9,
        usage: Usage | None = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        self.threshold = threshold
        self.usage = usage
        # Word-only hashing: the cache embeds *canonical* text, whose
        # surface is already normalized, so character-trigram features
        # would only add a shared-template background signal that
        # inflates similarity between unrelated questions.
        self._embedder = HashingEmbedder(
            dimensions=_DIMENSIONS, use_trigrams=False
        )
        self._lock = threading.Lock()
        self._entries = LRUCache(capacity)
        self._index = FlatIndex(_DIMENSIONS)
        #: Index row -> entry key; ``None`` marks a tombstoned row
        #: (evicted or invalidated — FlatIndex has no delete).
        self._rows: list[str | None] = []

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    def __len__(self) -> int:
        with racecheck.guard("SemanticResultCache._lock", self._lock):
            racecheck.read("SemanticResultCache._entries")
            return len(self._entries)

    # -- metering (the one seam; lock held) ---------------------------

    def _meter(self, name: str, amount: int = 1) -> None:
        # Built per event: ``usage`` is assignable.
        Meter(self.usage).add(name, amount)

    # -- lookup / store -----------------------------------------------

    def key_for(self, request: str) -> str | None:
        """The key ``request`` would store/match under, or None.

        None means *uncacheable* — the cache is disabled or the
        canonical form is degenerate.  The serve loop keys its in-run
        duplicate coalescing (leader/follower) on this, so two requests
        coalesce exactly when a store by one would be an exact hit for
        the other.
        """
        if self.capacity == 0:
            return None
        canonical = canonicalize(request)
        if canonical.degenerate:
            return None
        return canonical.text

    def meter_coalesced(self) -> None:
        """Meter an in-run duplicate served from an in-flight leader.

        The serve loop resolves such a follower from its leader's
        result after the run; the duplicate dispatches no pipeline and
        costs zero LM tokens, so it counts as a ``semcache_hits`` event
        (metered here, at lookup position in the stream, never again at
        resolution time).
        """
        with racecheck.guard("SemanticResultCache._lock", self._lock):
            self._meter("semcache_hits")

    def lookup(self, request: str) -> SemanticHit | None:
        """Serve ``request`` from the cache, or meter a miss.

        Emits a ``semcache.lookup`` trace leaf when a request trace is
        active on the calling thread (zero virtual seconds: cache
        service costs no simulated compute).
        """
        canonical = canonicalize(request)
        with racecheck.guard("SemanticResultCache._lock", self._lock):
            racecheck.write("SemanticResultCache._entries")
            hit = self._lookup_locked(canonical)
        if hit is None:
            trace.leaf("semcache.lookup", 0.0, outcome="miss")
            return None
        trace.leaf(
            "semcache.lookup",
            0.0,
            outcome="hit",
            via=hit.via,
            similarity=round(hit.similarity, 9),
        )
        return hit

    def _lookup_locked(self, canonical: CanonicalForm) -> SemanticHit | None:
        if self.capacity == 0 or canonical.degenerate:
            # The single disabled/uncacheable metering point: one miss
            # per lookup, nothing metered again at store time.
            self._meter("semcache_misses")
            return None
        entry = self._entries.get(canonical.text)
        if entry is not None:
            self._meter("semcache_hits")
            return SemanticHit(
                result=detached_copy(entry.result, canonical.raw),
                via="exact",
                similarity=1.0,
                source_request=entry.request,
            )
        query = self._embedder.embed(canonical.text)
        # Over-fetch by the tombstone count so dead rows cannot crowd
        # live candidates out of the probe window.
        dead = sum(1 for key in self._rows if key is None)
        rows, scores = self._index.search(query, _PROBE + dead)
        for row, score in zip(rows, scores):
            if float(score) < self.threshold:
                break
            live = self._rows[int(row)]
            if live is None:
                continue
            entry = self._entries.get(live)
            if entry is None:
                continue
            self._meter("semcache_near_hits")
            return SemanticHit(
                result=detached_copy(entry.result, canonical.raw),
                via="near",
                similarity=float(score),
                source_request=entry.request,
            )
        self._meter("semcache_misses")
        return None

    def store(self, request: str, result: TAGResult) -> bool:
        """Insert an accepted result; returns True when stored.

        Only successful, non-degraded results are stored (a degraded
        answer replayed from cache would skip the primary tier
        forever), and only under a non-degenerate canonical form.  A
        key already present keeps its first result — two executions of
        one canonical form are byte-identical by the serving layer's
        determinism contract, so refreshing would change nothing but
        eviction order.
        """
        canonical = canonicalize(request)
        if (
            self.capacity == 0
            or canonical.degenerate
            or not result.ok
            or result.degraded
        ):
            return False
        key = canonical.text
        with racecheck.guard("SemanticResultCache._lock", self._lock):
            racecheck.write("SemanticResultCache._entries")
            if key in self._entries:
                return False
            row = len(self._rows)
            self._index.add(self._embedder.embed(canonical.text))
            self._rows.append(key)
            evicted = self._entries.put(
                key,
                _Entry(
                    request=request,
                    result=detached_copy(result, request),
                    row=row,
                ),
            )
            for _, old in evicted:
                self._rows[old.row] = None
        return True

    # -- invalidation --------------------------------------------------

    def invalidate(self) -> int:
        """Evict every entry after a data/catalog change; returns the
        count.  Each evicted entry meters one invalidation."""
        with racecheck.guard("SemanticResultCache._lock", self._lock):
            racecheck.write("SemanticResultCache._entries")
            doomed = list(self._entries.keys())
            for key in doomed:
                entry = self._entries.pop(key)
                self._rows[entry.row] = None
            if doomed:
                self._meter("semcache_invalidations", len(doomed))
            return len(doomed)

    def stats(self) -> dict[str, int]:
        """Deterministic size snapshot (for reports and the CLI)."""
        with racecheck.guard("SemanticResultCache._lock", self._lock):
            racecheck.read("SemanticResultCache._entries")
            return {
                "entries": len(self._entries),
                "index_rows": len(self._rows),
                "tombstones": sum(
                    1 for key in self._rows if key is None
                ),
            }
