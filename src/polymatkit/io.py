"""Line-oriented text serialization for polynomial matrices.

Format (UTF-8, bit-exact round trip):

    polymat 1
    p <prime>
    dims <rows> <cols>
    e <i> <j> <c0> <c1> ... <ck>

Entry lines use 0-based indices and coefficients low-to-high, canonical
residues, trailing zeros forbidden; omitted entries are zero. ``#`` starts
a comment anywhere on a line.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, PrimeMismatch
from .field import PrimeField, get_field
from .polymat import PolyMatrix, entry_degrees

FORMAT_TAG = "polymat"
FORMAT_VERSION = 1

# Largest rows * cols * (degree + 1) the parser allocates: 2^24 int64
# coefficients, 128 MiB. Larger inputs raise ParseError before allocating.
MAX_COEFFS = 1 << 24


def serialize(a: PolyMatrix) -> str:
    lines = [
        f"{FORMAT_TAG} {FORMAT_VERSION}",
        f"p {a.field.p}",
        f"dims {a.rows} {a.cols}",
    ]
    # one conversion to Python ints per matrix; each entry ends at its degree
    degs = entry_degrees(a).tolist()
    for i, row in enumerate(a.coeffs.transpose(1, 2, 0).tolist()):
        for j, col in enumerate(row):
            if degs[i][j] >= 0:
                lines.append(f"e {i} {j} " + " ".join(map(str, col[: degs[i][j] + 1])))
    return "\n".join(lines) + "\n"


def _strip(line: str) -> str:
    cut = line.find("#")
    return (line if cut < 0 else line[:cut]).strip()


def parse(text: str) -> PolyMatrix:
    """Parse the text format; raises ParseError with 1-based line numbers."""
    lines = text.splitlines()
    # locate the three header lines, skipping blanks/comments
    header = []
    body_start = 0
    for idx, raw in enumerate(lines):
        s = _strip(raw)
        if not s:
            continue
        header.append((idx + 1, s))
        if len(header) == 3:
            body_start = idx + 1
            break
    if len(header) < 3:
        raise ParseError("incomplete header", line=len(lines))

    ln, tag = header[0]
    parts = tag.split()
    if parts[0] != FORMAT_TAG:
        raise ParseError(f"bad format tag {parts[0]!r}", line=ln, column=1)
    if len(parts) != 2 or parts[1] != str(FORMAT_VERSION):
        raise ParseError(f"unsupported format version in {tag!r}", line=ln)

    ln, pline = header[1]
    parts = pline.split()
    if len(parts) != 2 or parts[0] != "p" or not parts[1].isdigit():
        raise ParseError(f"expected 'p <prime>', got {pline!r}", line=ln)
    try:
        field = get_field(int(parts[1]))
    except ValueError as exc:
        raise ParseError(str(exc), line=ln) from exc

    ln, dline = header[2]
    parts = dline.split()
    if len(parts) != 3 or parts[0] != "dims":
        raise ParseError(f"expected 'dims <rows> <cols>', got {dline!r}", line=ln)
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"non-integer dimensions in {dline!r}", line=ln) from exc
    if rows < 0 or cols < 0:
        raise ParseError("negative dimensions", line=ln)
    if max(rows, cols, rows * cols) > MAX_COEFFS:
        raise ParseError(f"{rows}x{cols} exceeds {MAX_COEFFS} coefficients", line=ln)

    entries: dict[tuple[int, int], list[int]] = {}
    length = 1
    for idx in range(body_start, len(lines)):
        s = _strip(lines[idx])
        if not s:
            continue
        ln = idx + 1
        parts = s.split()
        if parts[0] != "e":
            raise ParseError(f"expected entry line, got {parts[0]!r}", line=ln, column=1)
        if len(parts) < 4:
            raise ParseError("entry line needs i, j and coefficients", line=ln)
        try:
            i, j = int(parts[1]), int(parts[2])
            coeffs = [int(c) for c in parts[3:]]
        except ValueError as exc:
            raise ParseError("non-integer token on entry line", line=ln) from exc
        if not (0 <= i < rows and 0 <= j < cols):
            raise ParseError(f"entry ({i},{j}) outside {rows}x{cols}", line=ln)
        if any(c < 0 or c >= field.p for c in coeffs):
            raise ParseError("coefficient outside canonical range [0, p)", line=ln)
        if coeffs and coeffs[-1] == 0:
            raise ParseError("trailing zero coefficient forbidden", line=ln)
        if (i, j) in entries:
            raise ParseError(f"duplicate entry ({i},{j})", line=ln)
        entries[(i, j)] = coeffs
        length = max(length, len(coeffs))
        if rows * cols * length > MAX_COEFFS:
            raise ParseError(
                f"{rows}x{cols} of length {length} exceeds {MAX_COEFFS} coefficients", line=ln
            )

    arr = np.zeros((length, rows, cols), dtype=np.int64)
    for (i, j), coeffs in entries.items():
        arr[: len(coeffs), i, j] = coeffs
    return PolyMatrix(field, arr)


def load(path) -> PolyMatrix:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def save(path, a: PolyMatrix):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(a))


def check_same_field(*mats: PolyMatrix) -> PrimeField:
    fld = mats[0].field
    for m in mats[1:]:
        if m.field != fld:
            raise PrimeMismatch(f"operands over p={fld.p} and p={m.field.p}")
    return fld
