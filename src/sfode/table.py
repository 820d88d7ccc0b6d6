"""The one table format of every CSV file sfode writes.

Leading ``# key=value`` lines carry the metadata in sorted key order, then a
header row, then one comma-separated row per index with every number written
to 17 significant digits, so floats round-trip exactly and identical runs give
identical bytes.  The writers of solver, analysis, picard and cli check
their arguments and call :func:`write_table`, which is no entry point itself.
"""

from itertools import zip_longest

import numpy as np

# A block of full rows is one % format over its row-major cells, which is
# faster than a format call per cell; doing it per block of rows keeps the
# extra memory near 1 MB for any length.
_BLOCK_ROWS = 1024


def write_table(stream, meta: dict, header, columns) -> None:
    """Write meta, the header row and the columns as a CSV table.

    Meta values appear in their ``str()`` form.  A column shorter than the
    longest leaves its trailing cells empty.
    """
    for key in sorted(meta):
        stream.write(f"# {key}={meta[key]}\n")
    stream.write(",".join(header) + "\n")
    columns = [np.asarray(c) for c in columns]
    full = min(len(c) for c in columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, full, _BLOCK_ROWS):
        block = np.stack([c[start:min(start + _BLOCK_ROWS, full)] for c in columns], axis=1)
        stream.write((row * len(block)) % tuple(block.ravel().tolist()))
    # the ragged tail past the shortest column, cell by cell
    cells = [[format(v, ".17g") for v in c[full:].tolist()] for c in columns]
    stream.write("".join(",".join(r) + "\n" for r in zip_longest(*cells, fillvalue="")))
