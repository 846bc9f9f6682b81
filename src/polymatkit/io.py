"""Line-oriented text serialization for polynomial matrices.

Format (UTF-8, bit-exact round trip):

    polymat 1
    p <prime>
    dims <rows> <cols>
    e <i> <j> <c0> <c1> ... <ck>

Entry lines use 0-based indices and coefficients low-to-high, canonical
residues, trailing zeros forbidden; omitted entries are zero. ``#`` starts
a comment anywhere on a line.

Every p, dims, i, j and coefficient token is a canonical decimal: ASCII
digits, no sign, no underscore, no leading zero except ``0`` itself.
Anything else (``+5``, ``05``, ``1_000``, non-ASCII digits) is a ParseError
on its line, so each matrix has one text. A coefficient token longer than
any residue is "outside canonical range [0, p)", however many digits it has.

A malformed file raises ParseError for its first faulty line, with each
line's checks in a fixed order: tag, token count, token grammar, i and j
range, coefficient range, trailing zero, repeated (i, j), MAX_COEFFS.

Python checks each entry line's tag and token count. The i, j and
coefficient tokens are converted to int64 by numpy in chunks of at most
``_CHUNK`` (2^12) tokens, and every value check runs vectorized on the
converted array; a per-token scan runs only once a check has failed, to
name the line. So the parser holds the token strings of one entry line plus
at most one chunk, not of the whole file: parsing a 2^20-coefficient file
peaks at about 3.3x the text's length in traced memory.
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

# Entry tokens (i, j and coefficients) are converted to int64 in chunks of at most this many.
_CHUNK = 1 << 12
# 10, 100, ..., 10**18: a value v >= 0 has 1 + searchsorted(_POW10, v, "right") digits
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def serialize(a: PolyMatrix) -> str:
    lines = [
        f"{FORMAT_TAG} {FORMAT_VERSION}",
        f"p {a.field.p}",
        f"dims {a.rows} {a.cols}",
    ]
    # one conversion to Python ints per matrix; each entry ends at its degree
    degs = entry_degrees(a.coeffs).tolist()
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
    if len(parts) != 2 or parts[0] != "p":
        raise ParseError(f"expected 'p <prime>', got {pline!r}", line=ln)
    _check_header_tokens(parts[1:], ln)
    try:
        field = get_field(int(parts[1]))
    except ValueError as exc:
        raise ParseError(str(exc), line=ln) from exc

    ln, dline = header[2]
    parts = dline.split()
    if len(parts) != 3 or parts[0] != "dims":
        raise ParseError(f"expected 'dims <rows> <cols>', got {dline!r}", line=ln)
    _check_header_tokens(parts[1:], ln)
    tr, tc = parts[1:]
    if not (_below(tr, MAX_COEFFS + 1) and _below(tc, MAX_COEFFS + 1)
            and int(tr) * int(tc) <= MAX_COEFFS):
        raise ParseError(f"{tr}x{tc} exceeds {MAX_COEFFS} coefficients", line=ln)
    rows, cols = int(tr), int(tc)

    coeffs = _EntryReader(lines, field.p, rows, cols).read(body_start)
    return PolyMatrix._canonical(field, coeffs)


class _EntryReader:
    """Reads the entry lines. Python checks each line's tag and token count; numpy converts
    the i, j and coefficient tokens in chunks of at most ``_CHUNK`` and checks their values."""

    def __init__(self, lines: list[str], p: int, rows: int, cols: int):
        self.lines, self.p, self.rows, self.cols = lines, p, rows, cols
        self.counts: list[int] = []  # coefficients of each entry
        self.entry_lines: list[int] = []  # 1-based line number of each entry
        self.pending: list[str] = []  # i, j and coefficient tokens not yet converted
        self.chunks: list[np.ndarray] = []  # the converted ones, in file order
        self.converted = 0

    def read(self, start: int) -> np.ndarray:
        """The (length, rows, cols) coefficients of the entry lines from ``lines[start]`` on."""
        lines, counts, entry_lines, pending = self.lines, self.counts, self.entry_lines, self.pending
        rc = self.rows * self.cols
        max_len = MAX_COEFFS // rc if rc else 0
        for idx in range(start, len(lines)):
            parts = _strip(lines[idx]).split()
            if not parts:
                continue
            n = len(parts) - 3
            if parts[0] != "e" or not 0 < n <= max_len:
                self._convert(final=True)
                self._fail(len(counts), parts, idx + 1)
            counts.append(n)
            entry_lines.append(idx + 1)
            pending += parts[1:]
            if len(pending) >= _CHUNK:
                self._convert(final=False)
        self._convert(final=True)

        toks = np.concatenate(self.chunks) if self.chunks else np.zeros(0, dtype=np.int64)
        self.chunks = [toks]
        cnt = np.array(counts, dtype=np.int64)
        first = _first_faulty(toks, cnt, self.rows, self.cols, self.p)
        if first < len(cnt):
            self._fail(first)
        # token t of entry (i, j) goes to flat index (t - 2) * rows * cols + i * cols + j;
        # its i and j tokens go to one spare slot past the end
        length = int(cnt.max()) if len(cnt) else 1
        starts = np.cumsum(cnt + 2) - cnt - 2
        keys = toks[starts] * self.cols + toks[starts + 1]
        dest = np.arange(len(toks), dtype=np.int64)
        dest *= rc
        dest += np.repeat(keys - (starts + 2) * rc, cnt + 2)
        dest[starts] = dest[starts + 1] = length * rc
        arr = np.zeros(length * rc + 1, dtype=np.int64)
        arr[dest] = toks
        return arr[:-1].reshape(length, self.rows, self.cols)

    def _convert(self, final: bool):
        """Convert the whole chunks of pending tokens, and the rest too if ``final``."""
        pending = self.pending
        stop = len(pending) if final else len(pending) - len(pending) % _CHUNK
        for k in range(0, stop, _CHUNK):
            tokens = pending[k : k + _CHUNK]
            vals = _to_int64(tokens)
            if vals is None:
                # the first token not canonical or of 19+ digits: its entry is faulty
                bad = next(t for t, tok in enumerate(tokens) if len(tok) > 18 or _grammar_fault(tok))
                self.chunks.append(np.array(tokens[:bad], dtype=np.int64))
                ends = np.cumsum(np.array(self.counts, dtype=np.int64) + 2)
                self._fail(int(np.searchsorted(ends, self.converted + k + bad, side="right")))
            self.chunks.append(vals)
        self.converted += stop
        del pending[:stop]

    def _fail(self, e: int, parts: list[str] | None = None, ln: int = 0):
        """Raise the error of entry e, or of the line ``parts`` (line ``ln``) that would be
        entry e, unless an earlier entry is faulty; the chunks hold the entries before e."""
        cnt = np.array(self.counts[:e], dtype=np.int64)
        toks = np.concatenate(self.chunks) if e else np.zeros(0, dtype=np.int64)
        first = _first_faulty(toks, cnt, self.rows, self.cols, self.p)
        if first < e:
            e, parts, cnt = first, None, cnt[:first]
        if parts is None:
            ln = self.entry_lines[e]
            parts = _strip(self.lines[ln - 1]).split()
        starts = np.cumsum(cnt + 2) - cnt - 2
        taken = set((toks[starts] * self.cols + toks[starts + 1]).tolist())
        raise _entry_fault(parts, ln, self.rows, self.cols, self.p, taken)


def _to_int64(tokens: list[str]) -> np.ndarray | None:
    """The int64 values of canonical decimal tokens; None if a token is not canonical or
    does not fit int64."""
    joined = "".join(tokens)
    if not (joined.isascii() and joined.encode().isdigit()):
        return None
    try:
        vals = np.array(tokens, dtype=np.int64)
    except (OverflowError, ValueError):  # numpy goes through int(): past int64, or past 4300 digits
        return None
    # every token is digits only, so a leading zero is the one way a value has fewer digits
    if len(vals) + int(np.searchsorted(_POW10, vals, side="right").sum()) != len(joined):
        return None
    return vals


def _first_faulty(toks: np.ndarray, counts: np.ndarray, rows: int, cols: int, p: int) -> int:
    """The first entry with (i, j) outside rows x cols or repeated, a coefficient >= p or a
    trailing zero; len(counts) if none is faulty.

    ``toks`` holds each entry's i, j and ``counts[e]`` coefficients in file order, all of
    them canonical decimals.
    """
    if not len(counts):
        return 0
    ends = np.cumsum(counts + 2)
    starts = ends - counts - 2
    i, j = toks[starts], toks[starts + 1]
    outside = (i >= rows) | (j >= cols)
    # a repeated (i, j) flags its later entries; entries outside get keys of their own
    keys = np.where(outside, -1 - np.arange(len(counts)), i * cols + j)
    order = np.argsort(keys, kind="stable")
    repeated = order[1:][keys[order[1:]] == keys[order[:-1]]]
    bad = toks[: ends[-1]] >= p  # flags on each entry's own tokens, so the first flag names it
    bad[starts] = outside
    bad[starts + 1] = False
    bad[starts[repeated]] = True
    bad[ends - 1] |= toks[ends - 1] == 0
    if not bad.any():
        return len(counts)
    return int(np.searchsorted(ends, bad.argmax(), side="right"))


# -- the error path: one token or one line at a time --------------------------

def _grammar_fault(tok: str, where: str = "entry line") -> str | None:
    """Why ``tok`` is not a canonical decimal (ASCII digits, no sign, no leading zero)."""
    if tok.isascii() and tok.isdigit() and (tok[0] != "0" or len(tok) == 1):
        return None
    try:
        int(tok)
    except ValueError:
        return f"non-integer token on {where}"
    return f"non-canonical integer on {where}: use ASCII digits, no sign, no leading zero"


def _check_header_tokens(tokens: list[str], ln: int):
    """ParseError on line ``ln`` for the first token that is not a canonical decimal."""
    for tok in tokens:
        msg = _grammar_fault(tok, "header line")
        if msg:
            raise ParseError(msg, line=ln)


def _below(tok: str, bound: int) -> bool:
    """Whether a canonical decimal token is below ``bound``; a long token is not converted."""
    return len(tok) <= len(str(bound)) and int(tok) < bound


def _entry_fault(parts: list[str], ln: int, rows: int, cols: int, p: int, taken) -> ParseError:
    """The error of a faulty entry line, by the fixed order of the checks; ``taken`` holds
    i * cols + j of the entries before it."""
    if parts[0] != "e":
        return ParseError(f"expected entry line, got {parts[0]!r}", line=ln, column=1)
    if len(parts) < 4:
        return ParseError("entry line needs i, j and coefficients", line=ln)
    for tok in parts[1:]:
        msg = _grammar_fault(tok)
        if msg:
            return ParseError(msg, line=ln)
    ti, tj, coeffs = parts[1], parts[2], parts[3:]
    if not (_below(ti, rows) and _below(tj, cols)):
        return ParseError(f"entry ({ti},{tj}) outside {rows}x{cols}", line=ln)
    if not all(_below(c, p) for c in coeffs):
        return ParseError("coefficient outside canonical range [0, p)", line=ln)
    if coeffs[-1] == "0":
        return ParseError("trailing zero coefficient forbidden", line=ln)
    if int(ti) * cols + int(tj) in taken:
        return ParseError(f"duplicate entry ({ti},{tj})", line=ln)
    return ParseError(
        f"{rows}x{cols} of length {len(coeffs)} exceeds {MAX_COEFFS} coefficients", line=ln)


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
