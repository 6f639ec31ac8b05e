"""The Text2SQL capability: a rule-based NL -> SQL semantic parser.

Behaves the way the paper characterises LM query synthesis:

- relational asks (filters, superlatives, counts, joins) are translated
  faithfully, using schema vocabulary knowledge
  (:mod:`repro.lm.schema_semantics`) and the foreign keys declared in
  the prompt's CREATE TABLE statements;
- *world-knowledge* clauses are answered parametrically: "schools in
  the Bay Area" becomes ``City IN (...)`` with the city list recalled
  from the model's (fuzzy) beliefs — sometimes right, sometimes subtly
  wrong, exactly the 10-20% exact-match regime of the paper's Text2SQL
  baseline on knowledge queries;
- *semantic-reasoning* clauses (sarcasm, technicality, sentiment,
  summarisation) have no relational equivalent, so the parser does what
  LMs observably do: emit a plausible proxy (``ORDER BY LENGTH(Title)``
  for "most technical", ``Score > 0`` for "positive") or drop the
  clause — producing valid SQL whose answer is wrong.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.errors import SQLSyntaxError
from repro.knowledge import FuzzyKnowledge
from repro.lm import schema_semantics
from repro.lm.prompts import TEXT2SQL_INSTRUCTION
from repro.lm.router import HandlerContext

_NUMBER = r"(\d+(?:\.\d+)?)"
_GT_RE = re.compile(
    rf"(?:over|above|more than|greater than|at least|exceeding) {_NUMBER}",
    re.IGNORECASE,
)
_LT_RE = re.compile(
    rf"(?:under|below|less than|fewer than|at most) {_NUMBER}",
    re.IGNORECASE,
)
_BETWEEN_RE = re.compile(
    rf"between {_NUMBER} and {_NUMBER}", re.IGNORECASE
)
_TOP_N_RE = re.compile(
    r"\btop (\d+)\b|\b(\d+) (?:\w+ )?(?:posts?|schools?|players?|races?|"
    r"rows?|comments?|drivers?|movies?|titles?|customers?|years?|"
    r"circuits?)\b",
    re.IGNORECASE,
)
_SUPERLATIVE_HIGH = re.compile(
    r"\b(highest|most|largest|greatest|biggest|maximum|best)\b",
    re.IGNORECASE,
)
_SUPERLATIVE_LOW = re.compile(
    r"\b(lowest|least|smallest|minimum|fewest|worst)\b", re.IGNORECASE
)
_QUOTED_RE = re.compile(r"[\"']([^\"']+)[\"']")
_TALLER_RE = re.compile(
    r"\b(taller|shorter) than ([A-Z][A-Za-z.'-]*(?: [A-Z][A-Za-z.'-]*)*)",
)
_REGION_RE = re.compile(
    r"(?:in|of|part of) (?:cities (?:in|that are part of) )?(?:the )?"
    r"[\"']?(silicon valley|bay area|southern california|central valley)"
    r"[\"']?(?: region| area)?",
    re.IGNORECASE,
)
_EURO_RE = re.compile(
    r"countries (?:that|which) use the euro|eurozone countries"
    r"|euro-using countries",
    re.IGNORECASE,
)
_EU_RE = re.compile(
    r"countries (?:that are |which are )?in the (?:EU|European Union)"
    r"|EU member (?:states|countries)",
    re.IGNORECASE,
)
_BIG_FIVE_RE = re.compile(
    r"big[- ]five league|big 5 league", re.IGNORECASE
)
_UK_LEAGUE_RE = re.compile(
    r"leagues? (?:based |played )?in the (?:UK|United Kingdom)",
    re.IGNORECASE,
)
_STREET_CIRCUIT_RE = re.compile(
    r"street circuits?", re.IGNORECASE
)
_CIRCUIT_REGION_RE = re.compile(
    r"circuits? (?:located |based )?in (southeast asia|east asia|europe"
    r"|north america|south america|middle east|oceania)",
    re.IGNORECASE,
)
_REASONING_FILTER_RE = re.compile(
    r"\b(positive|negative|sarcastic|technical)\b", re.IGNORECASE
)
_REASONING_ORDER_RE = re.compile(
    r"most (sarcastic|technical|positive|negative)", re.IGNORECASE
)
_WORLD_CHAMPION_RE = re.compile(
    r"world champion(?:ship)? (?:in |of )?(\d{4})", re.IGNORECASE
)


@dataclass
class _Sketch:
    """Accumulated translation state for one question."""

    select: list[tuple[str, str]] = field(default_factory=list)
    count: bool = False
    filters: list[str] = field(default_factory=list)
    order: tuple[str, str, bool] | None = None  # (table, column, asc)
    limit: int | None = None
    tables: set[str] = field(default_factory=set)


class Text2SQLHandler:
    """Recognises the BIRD-format prompt and emits SQL."""

    def matches(self, prompt: str) -> bool:
        return TEXT2SQL_INSTRUCTION in prompt and (
            "CREATE TABLE" in prompt
        )

    def handle(self, prompt: str, context: HandlerContext) -> str:
        tables, fk_edges = _parse_schema(prompt)
        question = _parse_question(prompt)
        if question is None or not tables:
            return "SELECT 1"
        overrides = parse_external_knowledge(
            _parse_external_knowledge_line(prompt)
        )
        return _synthesize(
            question, tables, fk_edges, context.fuzzy, overrides
        )


# ---------------------------------------------------------------------------
# prompt parsing
# ---------------------------------------------------------------------------


_CREATE_TABLE_RE = re.compile(r"CREATE TABLE.*?\n\)", re.DOTALL)


def _parse_schema(
    prompt: str,
) -> tuple[dict[str, list[str]], list[tuple[str, str, str, str]]]:
    """Extract tables {name: [columns]} and FK edges from the prompt."""
    tables: dict[str, list[str]] = {}
    edges: list[tuple[str, str, str, str]] = []
    for block in _CREATE_TABLE_RE.findall(prompt):
        parsed = _parse_block(block)
        if parsed is not None:
            name, columns, block_edges = parsed
            tables[name] = list(columns)
            edges.extend(block_edges)
    return tables, edges


@functools.lru_cache(maxsize=256)
def _parse_block(
    block: str,
) -> tuple[str, tuple[str, ...], tuple[tuple[str, str, str, str], ...]] | None:
    """One CREATE TABLE block as (name, columns, FK edges), parsed once
    per distinct text: a schema's blocks recur in every prompt over it.
    Immutable, so callers copy out of it."""
    try:
        statement = parse_statement(block)
    except SQLSyntaxError:
        return None
    if not isinstance(statement, ast.CreateTable):
        return None
    return (
        statement.name,
        tuple(column.name for column in statement.columns),
        tuple(
            (statement.name, fk.column, fk.parent_table, fk.parent_column)
            for fk in statement.foreign_keys
        ),
    )


_XK_LINE = "-- External Knowledge: "


def _parse_external_knowledge_line(prompt: str) -> str:
    r"""The rest of the first line that starts with ``_XK_LINE`` (as
    under ``re.MULTILINE``, a line starts after ``\n`` only)."""
    if prompt.startswith(_XK_LINE):
        start = len(_XK_LINE)
    else:
        start = prompt.find("\n" + _XK_LINE)
        if start < 0:
            return ""
        start += 1 + len(_XK_LINE)
    text = prompt[start:].partition("\n")[0].strip()
    return "" if text == "None" else text


#: Hint sentence patterns the model reads from External Knowledge —
#: mirrors BIRD's "evidence" strings.
_XK_REGION_RE = re.compile(
    r"the (silicon valley|bay area|southern california|central valley)"
    r" cities are:? ([^.]+)",
    re.IGNORECASE,
)
_XK_HEIGHT_RE = re.compile(
    r"([A-Z][A-Za-z.'-]*(?: [A-Z][A-Za-z.'-]*)*) is "
    r"(\d+(?:\.\d+)?) ?cm tall",
)
_XK_SET_RES = {
    "euro_countries": re.compile(
        r"countries that use the euro(?: are)?:? ([^.]+)", re.IGNORECASE
    ),
    "eu_countries": re.compile(
        r"countries in the european union(?: are)?:? ([^.]+)",
        re.IGNORECASE,
    ),
    "street_circuits": re.compile(
        r"(?:the )?street circuits are:? ([^.]+)", re.IGNORECASE
    ),
    "southeast_asia_circuits": re.compile(
        r"circuits in southeast asia(?: are)?:? ([^.]+)", re.IGNORECASE
    ),
    "uk_leagues": re.compile(
        r"leagues in the united kingdom(?: are)?:? ([^.]+)",
        re.IGNORECASE,
    ),
}


def parse_external_knowledge(text: str) -> dict:
    """Parse External-Knowledge hint sentences into overrides.

    Returns a dict with optional keys: ``("region_cities", region)`` ->
    list[str], ``("height", person_lower)`` -> float, plus the set keys
    in :data:`_XK_SET_RES`.  Unknown sentences are ignored (a real LM
    simply would not benefit from hints it cannot ground).
    """
    overrides: dict = {}
    if not text:
        return overrides
    for match in _XK_REGION_RE.finditer(text):
        region = match.group(1).lower()
        overrides[("region_cities", region)] = _split_list(
            match.group(2)
        )
    for match in _XK_HEIGHT_RE.finditer(text):
        overrides[("height", match.group(1).strip().lower())] = float(
            match.group(2)
        )
    for key, pattern in _XK_SET_RES.items():
        match = pattern.search(text)
        if match is not None:
            overrides[key] = _split_list(match.group(1))
    return overrides


def _split_list(text: str) -> list[str]:
    return [
        piece.strip()
        for piece in re.split(r",| and ", text)
        if piece.strip()
    ]


def _parse_question(prompt: str) -> str | None:
    """The last non-empty ``--`` comment that is not protocol text: the
    format puts the question just above the closing ``SELECT``."""
    for line in reversed(prompt.splitlines()):
        line = line.strip()
        if line.startswith("--") and not line.startswith(
            ("-- External Knowledge", "-- Using valid SQLite")
        ):
            text = line[2:].strip()
            if text:
                return text
    return None


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def _synthesize(
    question: str,
    tables: dict[str, list[str]],
    fk_edges: list[tuple[str, str, str, str]],
    fuzzy: FuzzyKnowledge,
    overrides: dict | None = None,
) -> str:
    sketch = _Sketch()
    mentions = schema_semantics.find_mentions(question, tables)
    lowered = question.lower()

    _apply_intent(sketch, question, mentions)
    _apply_relational_idioms(sketch, question, tables)
    _apply_numeric_filters(sketch, question, mentions)
    _apply_quoted_literals(sketch, question, mentions, tables)
    _apply_knowledge_clauses(
        sketch, question, tables, fuzzy, overrides or {}
    )
    _apply_reasoning_clauses(sketch, question, mentions, tables)

    if not sketch.select and not sketch.count and mentions:
        first = mentions[0]
        sketch.select.append((first.table, first.column))
        sketch.tables.add(first.table)
    if not sketch.tables:
        sketch.tables.add(next(iter(tables)))
    if not sketch.select and not sketch.count:
        sketch.count = "how many" in lowered
        if not sketch.count:
            table = next(iter(sketch.tables))
            sketch.select.append((table, tables[table][0]))

    return _render(sketch, tables, fk_edges)


_COUNT_INTENT_RE = re.compile(
    r"\bhow many\b|\bcount the\b|\bthe number of\b|\btotal number of\b",
    re.IGNORECASE,
)


def _apply_intent(
    sketch: _Sketch,
    question: str,
    mentions: list[schema_semantics.Mention],
) -> None:
    lowered = question.lower()
    if _COUNT_INTENT_RE.search(question) is not None:
        sketch.count = True
        for mention in mentions:
            sketch.tables.add(mention.table)
    target = _target_mention(question, mentions)
    if target is not None and not sketch.count:
        sketch.select.append((target.table, target.column))
        sketch.tables.add(target.table)

    # "tallest"/"shortest" bind to the height column directly.
    for keyword, ascending in (("tallest", False), ("shortest", True)):
        if keyword in lowered and sketch.order is None:
            for mention in mentions:
                if mention.column.lower() == "height":
                    sketch.order = (mention.table, mention.column, ascending)
                    sketch.tables.add(mention.table)
                    break
            else:
                height = None
                for mention in mentions:
                    if mention.table.lower() == "player":
                        height = (mention.table, "height", ascending)
                        break
                if height is not None:
                    sketch.order = height
                    sketch.tables.add(height[0])
            if sketch.order is not None and sketch.limit is None:
                sketch.limit = 1

    # Superlative ordering: a high/low keyword close to a column phrase.
    for pattern, ascending in (
        (_SUPERLATIVE_HIGH, False),
        (_SUPERLATIVE_LOW, True),
    ):
        if sketch.order is not None:
            break
        for match in pattern.finditer(question):
            mention = _nearest_mention(
                mentions, match.start(), max_distance=40
            )
            if mention is None or not _is_numeric_column(mention):
                continue
            sketch.order = (mention.table, mention.column, ascending)
            sketch.tables.add(mention.table)
            if sketch.limit is None:
                sketch.limit = 1
            break
        if sketch.order is not None:
            break
    top_match = _TOP_N_RE.search(question)
    if top_match is not None:
        count = top_match.group(1) or top_match.group(2)
        if count is not None and sketch.order is not None:
            sketch.limit = int(count)


def _target_mention(
    question: str, mentions: list[schema_semantics.Mention]
) -> schema_semantics.Mention | None:
    """The attribute the question asks for (after 'what is the ...')."""
    match = re.search(
        r"(?:what (?:is|are) the|which|list (?:the |their )?|"
        r"provide the |give me the |show (?:me )?the |tell me the )",
        question,
        re.IGNORECASE,
    )
    if match is None:
        return mentions[0] if mentions else None
    for mention in mentions:
        if mention.position >= match.end() - 1:
            return mention
    return mentions[0] if mentions else None


def _nearest_mention(
    mentions: list[schema_semantics.Mention],
    position: int,
    max_distance: int,
) -> schema_semantics.Mention | None:
    best = None
    best_distance = max_distance + 1
    for mention in mentions:
        distance = abs(mention.position - position)
        if distance < best_distance:
            best = mention
            best_distance = distance
    return best


_NUMERIC_COLUMNS = {
    "longitude", "latitude", "avgscrmath", "avgscrread", "avgscrwrite",
    "numtsttakr", "numge1500", "enrollment", "freemealcount",
    "frpmcount", "viewcount", "score", "answercount", "reputation",
    "height", "weight", "overall_rating", "volleys", "dribbling",
    "finishing", "sprint_speed", "year", "round", "points", "position",
    "amount", "price", "consumption", "revenue", "charter",
}


def _is_numeric_column(mention: schema_semantics.Mention) -> bool:
    return mention.column.lower() in _NUMERIC_COLUMNS


def _apply_relational_idioms(
    sketch: _Sketch, question: str, tables: dict[str, list[str]]
) -> None:
    """Schema idioms a competent LM translates reliably."""
    if re.search(r"\bcharter schools?\b", question, re.IGNORECASE):
        charter = _find_column(tables, "schools", "Charter")
        if charter is not None:
            sketch.filters.append(
                f"{_quote(charter[0])}.{_quote(charter[1])} = 1"
            )
            sketch.tables.add(charter[0])


def _apply_numeric_filters(
    sketch: _Sketch,
    question: str,
    mentions: list[schema_semantics.Mention],
) -> None:
    for pattern, operator in ((_GT_RE, ">"), (_LT_RE, "<")):
        for match in pattern.finditer(question):
            mention = _nearest_mention(
                mentions, match.start(), max_distance=60
            )
            if mention is None or not _is_numeric_column(mention):
                continue
            sketch.filters.append(
                f"{_qualified(mention)} {operator} {match.group(1)}"
            )
            sketch.tables.add(mention.table)
    for match in _BETWEEN_RE.finditer(question):
        mention = _nearest_mention(mentions, match.start(), max_distance=60)
        if mention is None or not _is_numeric_column(mention):
            continue
        sketch.filters.append(
            f"{_qualified(mention)} BETWEEN {match.group(1)} "
            f"AND {match.group(2)}"
        )
        sketch.tables.add(mention.table)


_TEXT_EQUALITY_CUES = (
    "titled", "named", "called", "on", "at", "in", "for", "of",
)

#: Quoted strings that are region/criterion names, not literals to match.
_NON_LITERAL_QUOTES = {
    "silicon valley", "bay area", "southern california",
    "central valley", "classic", "big five", "retail",
}


def _apply_quoted_literals(
    sketch: _Sketch,
    question: str,
    mentions: list[schema_semantics.Mention],
    tables: dict[str, list[str]],
) -> None:
    for match in _QUOTED_RE.finditer(question):
        literal = match.group(1)
        if literal.strip().lower() in _NON_LITERAL_QUOTES:
            continue
        prefix = question[: match.start()].rstrip().lower()
        cue = prefix.split()[-1] if prefix.split() else ""
        if cue not in _TEXT_EQUALITY_CUES:
            continue
        column = _literal_column(literal, prefix, mentions, tables)
        if column is None:
            continue
        table_name, column_name = column
        escaped = literal.replace("'", "''")
        sketch.filters.append(
            f"{_quote(table_name)}.{_quote(column_name)} = '{escaped}'"
        )
        sketch.tables.add(table_name)


def _literal_column(
    literal: str,
    prefix: str,
    mentions: list[schema_semantics.Mention],
    tables: dict[str, list[str]],
) -> tuple[str, str] | None:
    # "the post titled 'X'" -> Title; "on Sepang ... Circuit" -> name.
    if "titled" in prefix or "title" in prefix:
        return _find_column(tables, "posts", "Title")
    if "circuit" in literal.lower() or "circuit" in prefix:
        return _find_column(tables, "circuits", "name")
    for mention in reversed(mentions):
        if mention.position < len(prefix):
            return mention.table, mention.column
    return None


def _find_column(
    tables: dict[str, list[str]], table: str, column: str
) -> tuple[str, str] | None:
    for table_name, columns in tables.items():
        if table_name.lower() != table.lower():
            continue
        for actual in columns:
            if actual.lower() == column.lower():
                return table_name, actual
    return None


# ---------------------------------------------------------------------------
# knowledge clauses (parametric substitution)
# ---------------------------------------------------------------------------


def _apply_knowledge_clauses(
    sketch: _Sketch,
    question: str,
    tables: dict[str, list[str]],
    fuzzy: FuzzyKnowledge,
    overrides: dict,
) -> None:
    region_match = _REGION_RE.search(question)
    if region_match is not None:
        city_column = _find_column(tables, "schools", "City")
        if city_column is not None:
            region = region_match.group(1).lower()
            cities = set(
                overrides.get(("region_cities", region))
                or _believed_region_cities(fuzzy, region)
            )
            if cities:
                sketch.filters.append(
                    _in_list(city_column, sorted(cities))
                )
                sketch.tables.add(city_column[0])
    taller_match = _TALLER_RE.search(question)
    if taller_match is not None:
        height_column = _find_column(tables, "Player", "height")
        if height_column is not None:
            person = taller_match.group(2).strip().rstrip("?.")
            believed = overrides.get(
                ("height", person.lower())
            ) or fuzzy.believed_height_cm(person)
            if believed is not None:
                operator = ">" if taller_match.group(1) == "taller" else "<"
                sketch.filters.append(
                    f"{_quote(height_column[0])}."
                    f"{_quote(height_column[1])} {operator} {believed}"
                )
                sketch.tables.add(height_column[0])
    if _EURO_RE.search(question) is not None:
        _add_country_filter(
            sketch, tables, fuzzy, "uses_euro",
            overrides.get("euro_countries"),
        )
    elif _EU_RE.search(question) is not None:
        _add_country_filter(
            sketch, tables, fuzzy, "in_eu",
            overrides.get("eu_countries"),
        )
    if _BIG_FIVE_RE.search(question) is not None:
        league_column = _find_column(tables, "League", "name")
        if league_column is not None:
            leagues = _believed_true_subjects(fuzzy, "big_five_league")
            if leagues:
                sketch.filters.append(
                    _in_list(league_column, sorted(leagues))
                )
                sketch.tables.add(league_column[0])
    if _UK_LEAGUE_RE.search(question) is not None:
        league_column = _find_column(tables, "League", "name")
        if league_column is not None:
            leagues = set(
                overrides.get("uk_leagues")
                or _believed_uk_leagues(fuzzy)
            )
            if leagues:
                sketch.filters.append(
                    _in_list(league_column, sorted(leagues))
                )
                sketch.tables.add(league_column[0])
    if _STREET_CIRCUIT_RE.search(question) is not None:
        circuit_column = _find_column(tables, "circuits", "name")
        if circuit_column is not None:
            circuits = set(
                overrides.get("street_circuits")
                or _believed_true_subjects(fuzzy, "street_circuit")
            )
            if circuits:
                sketch.filters.append(
                    _in_list(circuit_column, sorted(circuits))
                )
                sketch.tables.add(circuit_column[0])
    circuit_region_match = _CIRCUIT_REGION_RE.search(question)
    if circuit_region_match is not None:
        circuit_column = _find_column(tables, "circuits", "name")
        if circuit_column is not None:
            region = circuit_region_match.group(1).lower()
            circuits = _believed_circuits_in_region(fuzzy, region)
            if region == "southeast asia" and overrides.get(
                "southeast_asia_circuits"
            ):
                circuits = set(overrides["southeast_asia_circuits"])
            if circuits:
                sketch.filters.append(
                    _in_list(circuit_column, sorted(circuits))
                )
                sketch.tables.add(circuit_column[0])
    champion_match = _WORLD_CHAMPION_RE.search(question)
    if champion_match is not None:
        surname_column = _find_column(tables, "drivers", "surname")
        champion = fuzzy.believe(
            "world_champion", champion_match.group(1)
        )
        if surname_column is not None and champion:
            surname = str(champion).split()[-1].replace("'", "''")
            sketch.filters.append(
                f"{_quote(surname_column[0])}."
                f"{_quote(surname_column[1])} = '{surname}'"
            )
            sketch.tables.add(surname_column[0])


def _add_country_filter(
    sketch: _Sketch,
    tables: dict[str, list[str]],
    fuzzy: FuzzyKnowledge,
    relation: str,
    override: list[str] | None = None,
) -> None:
    country_column = _find_column(tables, "gasstations", "Country")
    if country_column is None:
        return
    countries = set(
        override or _believed_true_subjects(fuzzy, relation)
    )
    if countries:
        sketch.filters.append(_in_list(country_column, sorted(countries)))
        sketch.tables.add(country_column[0])


def _believed_region_cities(fuzzy: FuzzyKnowledge, region: str) -> set[str]:
    kb = fuzzy._kb  # the fuzzy view wraps exactly one oracle store
    cities: set[str] = set()
    for fact in kb.facts_for_relation("in_region"):
        city, fact_region = fact.subject
        if fact_region != region:
            continue
        if fuzzy.believes_in_region(city, region):
            cities.add(city)
    return cities


def _believed_true_subjects(
    fuzzy: FuzzyKnowledge, relation: str
) -> set[str]:
    kb = fuzzy._kb
    return {
        str(fact.subject)
        for fact in kb.facts_for_relation(relation)
        if isinstance(fact.subject, str)
        and bool(fuzzy.believe(relation, fact.subject, False))
    }


def _believed_uk_leagues(fuzzy: FuzzyKnowledge) -> set[str]:
    kb = fuzzy._kb
    leagues: set[str] = set()
    for fact in kb.facts_for_relation("league_country"):
        league = str(fact.subject)
        country = fuzzy.believe("league_country", league)
        if country and bool(
            fuzzy.believe("uk_home_nation", str(country), False)
        ):
            leagues.add(league)
    return leagues


def _believed_circuits_in_region(
    fuzzy: FuzzyKnowledge, region: str
) -> set[str]:
    kb = fuzzy._kb
    circuits: set[str] = set()
    for fact in kb.facts_for_relation("circuit_region"):
        circuit = str(fact.subject)
        believed = fuzzy.believe("circuit_region", circuit)
        if believed == region:
            circuits.add(circuit)
    return circuits


# ---------------------------------------------------------------------------
# reasoning clauses (plausible proxies)
# ---------------------------------------------------------------------------


def _apply_reasoning_clauses(
    sketch: _Sketch,
    question: str,
    mentions: list[schema_semantics.Mention],
    tables: dict[str, list[str]],
) -> None:
    order_match = _REASONING_ORDER_RE.search(question)
    if order_match is not None:
        # "in order of most technical" has no SQL equivalent; a common
        # LM hallucination is a surface-feature proxy.
        mention = _nearest_mention(
            mentions, order_match.start(), max_distance=80
        )
        if mention is not None and not _is_numeric_column(mention):
            table = mention.table
            column = mention.column
        else:
            candidate = _find_column(tables, "posts", "Title") or (
                _find_column(tables, "comments", "Text")
            )
            if candidate is None:
                return
            table, column = candidate
        sketch.order = (
            "__expr__",
            f"LENGTH({_quote(table)}.{_quote(column)})",
            False,
        )
        sketch.tables.add(table)
        if sketch.limit is None and re.match(
            r"what is the|which", question, re.IGNORECASE
        ):
            sketch.limit = 1
        return
    filter_match = _REASONING_FILTER_RE.search(question)
    if filter_match is None:
        return
    keyword = filter_match.group(1).lower()
    if keyword in ("positive", "negative"):
        score_column = _find_column(tables, "comments", "Score") or (
            _find_column(tables, "posts", "Score")
        )
        if score_column is not None:
            operator = ">" if keyword == "positive" else "<"
            sketch.filters.append(
                f"{_quote(score_column[0])}.{_quote(score_column[1])} "
                f"{operator} 0"
            )
            sketch.tables.add(score_column[0])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _qualified(mention: schema_semantics.Mention) -> str:
    return f"{_quote(mention.table)}.{_quote(mention.column)}"


def _quote(name: str) -> str:
    if re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", name):
        return name
    return '"' + name.replace('"', '""') + '"'


def _in_list(column: tuple[str, str], values: list[str]) -> str:
    rendered = ", ".join(
        "'" + value.replace("'", "''") + "'" for value in values
    )
    return f"{_quote(column[0])}.{_quote(column[1])} IN ({rendered})"


def _render(
    sketch: _Sketch,
    tables: dict[str, list[str]],
    fk_edges: list[tuple[str, str, str, str]],
) -> str:
    join_order, join_clauses = _join_path(sketch.tables, fk_edges)
    if sketch.count:
        select_sql = "COUNT(*)"
    else:
        select_sql = ", ".join(
            f"{_quote(table)}.{_quote(column)}"
            for table, column in sketch.select
        )
    from_sql = _quote(join_order[0])
    for table, condition in join_clauses:
        from_sql += f" JOIN {_quote(table)} ON {condition}"
    sql = f"SELECT {select_sql} FROM {from_sql}"
    if sketch.filters:
        sql += " WHERE " + " AND ".join(sketch.filters)
    if sketch.order is not None:
        table, column, ascending = sketch.order
        direction = "ASC" if ascending else "DESC"
        if table == "__expr__":
            sql += f" ORDER BY {column} {direction}"
        else:
            sql += (
                f" ORDER BY {_quote(table)}.{_quote(column)} {direction}"
            )
    if sketch.limit is not None:
        sql += f" LIMIT {sketch.limit}"
    return sql


def _join_path(
    needed: set[str], fk_edges: list[tuple[str, str, str, str]]
) -> tuple[list[str], list[tuple[str, str]]]:
    """Order the needed tables and derive join conditions via FK edges.

    Greedy: start from the first needed table, repeatedly attach any
    needed (or bridging) table connected by a foreign key.  Unreachable
    tables are joined on a cross-product-free guess (first column), the
    kind of join error LMs make on unconnected schemas.
    """
    needed_list = sorted(needed)
    if len(needed_list) == 1:
        return needed_list, []
    adjacency: dict[str, list[tuple[str, str, str, str]]] = {}
    for child, child_col, parent, parent_col in fk_edges:
        adjacency.setdefault(child, []).append(
            (child, child_col, parent, parent_col)
        )
        adjacency.setdefault(parent, []).append(
            (parent, parent_col, child, child_col)
        )
    connected = [needed_list[0]]
    clauses: list[tuple[str, str]] = []
    remaining = set(needed_list[1:])
    progress = True
    while remaining and progress:
        progress = False
        for table in list(connected):
            for this, this_col, other, other_col in adjacency.get(
                table, []
            ):
                if other in remaining:
                    clauses.append(
                        (
                            other,
                            f"{_quote(this)}.{_quote(this_col)} = "
                            f"{_quote(other)}.{_quote(other_col)}",
                        )
                    )
                    connected.append(other)
                    remaining.discard(other)
                    progress = True
    # Try one-hop bridges through non-needed tables.
    if remaining:
        for bridge, edges in adjacency.items():
            if bridge in connected:
                continue
            touches_connected = None
            touches_remaining = None
            for this, this_col, other, other_col in edges:
                if other in connected:
                    touches_connected = (this, this_col, other, other_col)
                if other in remaining:
                    touches_remaining = (this, this_col, other, other_col)
            if touches_connected and touches_remaining:
                this, this_col, other, other_col = touches_connected
                clauses.append(
                    (
                        bridge,
                        f"{_quote(other)}.{_quote(other_col)} = "
                        f"{_quote(bridge)}.{_quote(this_col)}",
                    )
                )
                connected.append(bridge)
                this, this_col, other, other_col = touches_remaining
                clauses.append(
                    (
                        other,
                        f"{_quote(bridge)}.{_quote(this_col)} = "
                        f"{_quote(other)}.{_quote(other_col)}",
                    )
                )
                connected.append(other)
                remaining.discard(other)
    for orphan in sorted(remaining):
        # No FK path: emit a (wrong but parseable) equality on row ids.
        clauses.append((orphan, "1 = 1"))
        connected.append(orphan)
    return connected, clauses
