"""A small columnar dataframe.

The paper's hand-written TAG pipelines (Appendix C) are pandas+LOTUS
programs.  pandas is not a dependency of this reproduction, so this
package provides the dataframe surface those pipelines need — boolean
filtering, sorting with a key function, merging, group-by aggregation —
and :mod:`repro.semantic` layers the LOTUS-style semantic operators on
top of it.
"""

from repro.frame.frame import Column, DataFrame, merge
from repro.frame.groupby import GroupBy
from repro.frame.io import export_dataset, read_csv, write_csv

__all__ = [
    "Column",
    "DataFrame",
    "GroupBy",
    "export_dataset",
    "merge",
    "read_csv",
    "write_csv",
]
