"""The one table format of every CSV file sfode writes.

Leading ``# key=value`` lines carry the metadata in sorted key order, then a
header row, then one comma-separated row per index with every number written
to 17 significant digits, so floats round-trip exactly and identical runs give
identical bytes.  The writers of solver, analysis, picard and cli check
their arguments, the metadata by :func:`metadata_rule`, and call
:func:`write_table`, which is no entry point itself.
"""

from itertools import zip_longest

import numpy as np

from . import checks

# A block of full rows is one % format over its row-major cells, which is
# faster than a format call per cell; doing it per block of rows keeps the
# extra memory near 1 MB for any length.
_BLOCK_ROWS = 1024


def metadata_rule(name: str, value) -> list:
    """value is a dict whose every item is one ``# key=value`` line that
    reads back as it was written: a str key with no '=' or line break, and a
    value whose str has no line break (a newline or a carriage return)."""
    if problems := checks.type_rule(dict)(name, value):
        return problems
    breaks = "\n\r"
    keys = [f"{name} key {key!r} must be a str with no '=' or line break" for key in value
            if not isinstance(key, str) or any(c in key for c in "=" + breaks)]
    return keys + [f"{name}[{key!r}] must have no line break in its str; got {item!r}"
                   for key, item in value.items() if any(c in str(item) for c in breaks)]


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
