"""The row-at-a-time CSV writer, kept as the reference for `ioutil.BlockTable`.

It is `ioutil.write_csv` before block tables: every row a tuple, every cell
through `ioutil._cell` and `csv.writer`.
"""

import csv

from defaultlab.ioutil import _cell


def write_rows(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
