"""The parser against a per-token reference: error lines, token grammar, round trips, memory."""

import tracemalloc

import numpy as np
import pytest

import polymatkit as pk
from polymatkit import io as pmio
from polymatkit.errors import ParseError
from polymatkit.polymat import PolyMatrix

PRIMES = [2, 3, 97, 65537, 2**31 - 1, 2013265921]


def reference_parse(text: str) -> PolyMatrix:
    """The per-token parser that the chunked one replaced: int() on every token, checks line by line."""
    lines = text.splitlines()
    header = []
    body_start = 0
    for idx, raw in enumerate(lines):
        s = pmio._strip(raw)
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
    if parts[0] != "polymat":
        raise ParseError(f"bad format tag {parts[0]!r}", line=ln, column=1)
    if len(parts) != 2 or parts[1] != "1":
        raise ParseError(f"unsupported format version in {tag!r}", line=ln)
    ln, pline = header[1]
    parts = pline.split()
    if len(parts) != 2 or parts[0] != "p" or not parts[1].isdigit():
        raise ParseError(f"expected 'p <prime>', got {pline!r}", line=ln)
    try:
        field = pk.get_field(int(parts[1]))
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
    if max(rows, cols, rows * cols) > pmio.MAX_COEFFS:
        raise ParseError(f"{rows}x{cols} exceeds {pmio.MAX_COEFFS} coefficients", line=ln)

    entries = {}
    length = 1
    for idx in range(body_start, len(lines)):
        s = pmio._strip(lines[idx])
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
        if rows * cols * length > pmio.MAX_COEFFS:
            raise ParseError(
                f"{rows}x{cols} of length {length} exceeds {pmio.MAX_COEFFS} coefficients", line=ln
            )
    arr = np.zeros((length, rows, cols), dtype=np.int64)
    for (i, j), coeffs in entries.items():
        arr[: len(coeffs), i, j] = coeffs
    return PolyMatrix(field, arr)


def outcome(parse, text):
    try:
        a = parse(text)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "ok", a.field.p, a.coeffs.shape, a.coeffs.tobytes()


# -- a seeded corpus of malformed files -----------------------------------------

FAULTS = ["non-integer", "out-of-range", "trailing-zero", "duplicate", "outside", "short",
          "max-coeffs"]


# MAX_COEFFS while the corpus runs, so that small files can go past it
SMALL_MAX_COEFFS = 64


@pytest.fixture
def small_limits(monkeypatch):
    monkeypatch.setattr(pmio, "MAX_COEFFS", SMALL_MAX_COEFFS)


def random_entries(rng, p):
    """dims and the token lists of a valid file's entry lines."""
    rows, cols = (int(rng.integers(1, 6)) for _ in range(2))
    max_len = pmio.MAX_COEFFS // (rows * cols)
    cells = {}
    for _ in range(int(rng.integers(1, 9))):
        cells[int(rng.integers(rows)), int(rng.integers(cols))] = None
    entries = []
    for i, j in cells:
        coeffs = [int(c) for c in rng.integers(0, p, int(rng.integers(1, min(max_len, 6) + 1)))]
        coeffs[-1] = int(rng.integers(1, p))
        entries.append(["e", str(i), str(j), *map(str, coeffs)])
    return rows, cols, entries


def inject(rng, fault, entries, rows, cols, p):
    whole = [k for k, toks in enumerate(entries) if len(toks) >= 4]  # not cut short already
    if not whole:
        return
    k = int(rng.choice(whole))
    toks = entries[k]
    if fault == "non-integer":
        toks[int(rng.integers(1, len(toks)))] = str(rng.choice(["x", "1.5", "1e3", "0x1f", "--", "7a"]))
    elif fault == "out-of-range":
        toks[int(rng.integers(3, len(toks)))] = str(p + int(rng.integers(0, 1000)))
    elif fault == "trailing-zero":
        toks.append("0")
    elif fault == "duplicate":
        copy = toks[:3] + [str(int(rng.integers(1, p)))]
        entries.insert(int(rng.integers(k + 1, len(entries) + 1)), copy)
    elif fault == "outside":
        pos = int(rng.integers(1, 3))
        toks[pos] = str((rows, cols)[pos - 1] + int(rng.integers(0, 3)))
    elif fault == "short":
        del toks[int(rng.integers(1, 4)):]
    else:  # one coefficient past MAX_COEFFS
        max_len = pmio.MAX_COEFFS // (rows * cols)
        toks.extend(["1"] * (max_len + 1 - (len(toks) - 3)))


def render(rng, p, rows, cols, entries):
    """The file, with blank lines, comments and CRLF between the entry lines."""
    out = ["polymat 1", f"p {p}", f"dims {rows} {cols}"]
    for toks in entries:
        for _ in range(int(rng.integers(0, 3))):
            out.append(str(rng.choice(["", "   ", "# a comment", "  # indented comment"])))
        line = " ".join(toks)
        if rng.random() < 0.2:
            line = "  " + line.replace(" ", "\t", 1) + "  # trailing comment"
        out.append(line)
    nl = "\r\n" if rng.random() < 0.3 else "\n"
    return nl.join(out) + nl


def corpus(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.choice(PRIMES))
        rows, cols, entries = random_entries(rng, p)
        for _ in range(int(rng.integers(0, 3))):  # zero, one or two faults on random lines
            inject(rng, str(rng.choice(FAULTS)), entries, rows, cols, p)
        yield render(rng, p, rows, cols, entries)


@pytest.mark.parametrize("chunk", [3, 7, pmio._CHUNK])
def test_errors_name_the_reference_line_and_cause(monkeypatch, small_limits, chunk):
    # small chunks put the faults in every position relative to the chunk boundaries
    monkeypatch.setattr(pmio, "_CHUNK", chunk)
    errors = 0
    for text in corpus(seed=4242 + chunk, count=1500):
        want = outcome(reference_parse, text)
        assert outcome(pmio.parse, text) == want, text
        errors += want[0] == "error"
    assert errors > 800


MESSAGES = {
    "non-integer": "non-integer token on entry line",
    "out-of-range": "coefficient outside canonical range",
    "trailing-zero": "trailing zero coefficient forbidden",
    "duplicate": "duplicate entry",
    "outside": "outside",
    "short": "entry line needs i, j and coefficients",
    "max-coeffs": "exceeds",
}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_kind_reaches_its_check(small_limits, fault):
    rng = np.random.default_rng(FAULTS.index(fault))
    hits = 0
    for _ in range(40):
        p = int(rng.choice(PRIMES))
        rows, cols, entries = random_entries(rng, p)
        inject(rng, fault, entries, rows, cols, p)
        text = render(rng, p, rows, cols, entries)
        want = outcome(reference_parse, text)
        assert want[0] == "error" and outcome(pmio.parse, text) == want, text
        hits += MESSAGES[fault] in want[2]
    assert hits >= 5


# -- the token grammar ------------------------------------------------------------

@pytest.mark.parametrize("token", ["+5", "05", "00", "-0", "1_000", "٣", "１２", "+0"])
@pytest.mark.parametrize("where", [1, 2, 3, 4])
def test_non_canonical_tokens_are_refused_on_their_line(token, where):
    # int() takes every one of these; the format has one spelling per value
    toks = ["e", "0", "1", "3", "4"]
    toks[where] = token
    text = "polymat 1\np 97\ndims 16 16\ne 0 0 1\n" + " ".join(toks) + "\ne 1 1 2\n"
    with pytest.raises(ParseError, match="non-canonical integer") as info:
        pmio.parse(text)
    assert info.value.line == 5


@pytest.mark.parametrize("header", ["p ٩٧", "p 097", "p +97", "dims +2 ٢", "dims 02 2",
                                    "dims 1_0 2", "dims -1 2"])
def test_non_canonical_header_tokens_are_refused_on_their_line(header):
    p_line, dims_line = ("p 97", header) if header.startswith("dims") else (header, "dims 2 2")
    text = f"polymat 1\n{p_line}\n{dims_line}\ne 0 0 1\n"
    with pytest.raises(ParseError) as info:
        pmio.parse(text)
    assert info.value.line == (3 if header.startswith("dims") else 2)


@pytest.mark.parametrize("digits", [11, 19, 20, 25, 4300, 5000, 100_000])
def test_long_coefficient_is_out_of_range(digits):
    for p in (97, 2013265921):
        text = f"polymat 1\np {p}\ndims 2 2\ne 0 0 1\ne 1 0 3 {'9' * digits} 1\ne 1 1 1\n"
        with pytest.raises(ParseError, match=r"coefficient outside canonical range \[0, p\)") as info:
            pmio.parse(text)
        assert info.value.line == 5


@pytest.mark.parametrize("digits", [9, 19, 20, 5000])
def test_long_index_is_outside(digits):
    text = f"polymat 1\np 97\ndims 2 2\ne 1 {'8' * digits} 3\n"
    with pytest.raises(ParseError, match=r"outside 2x2") as info:
        pmio.parse(text)
    assert info.value.line == 4


def test_first_faulty_line_wins_across_chunks(monkeypatch):
    # a range fault in the first chunk precedes a grammar fault in a later one
    monkeypatch.setattr(pmio, "_CHUNK", 4)
    text = "polymat 1\np 97\ndims 1 3\ne 0 0 1 2 3\ne 0 1 1 97 2\ne 0 2 1 2 x\n"
    with pytest.raises(ParseError, match="outside canonical range") as info:
        pmio.parse(text)
    assert info.value.line == 5


# -- round trips --------------------------------------------------------------------

def round_trip_matrices(rng, p):
    fld = pk.get_field(p)
    yield PolyMatrix.zero(fld, 0, 3)
    yield PolyMatrix.zero(fld, 2, 0)
    yield PolyMatrix.zero(fld, 3, 2)
    for _ in range(12):
        rows, cols, length = (int(rng.integers(1, 6)) for _ in range(3))
        arr = rng.integers(0, p, size=(length, rows, cols))
        arr[:, rng.random((rows, cols)) < 0.3] = 0  # omitted entries
        arr[rng.random(arr.shape) < 0.3] = 0  # inner zero coefficients
        yield PolyMatrix(fld, arr)
    yield PolyMatrix(fld, rng.integers(0, p, size=(1, 3, 3)))  # degree 0


@pytest.mark.parametrize("p", PRIMES)
def test_seeded_round_trip(p):
    rng = np.random.default_rng(p % 1000)
    for a in round_trip_matrices(rng, p):
        text = pmio.serialize(a)
        got = pmio.parse(text)
        assert got == a and got.coeffs.shape == a.coeffs.shape
        assert np.array_equal(got.coeffs, reference_parse(text).coeffs)
        assert pmio.serialize(got) == text
        # comments, blank lines and CRLF between the entries change nothing
        lines = text.splitlines()
        noisy = "\r\n".join(lines[:3] + [f"# c\r\n\r\n  {ln}  # {k}" for k, ln in enumerate(lines[3:])])
        assert pmio.serialize(pmio.parse(noisy)) == text


# -- memory -------------------------------------------------------------------------

def test_parse_memory_stays_within_six_times_the_text(fd):
    # 32 x 32 of degree 1023: 2^20 coefficients. Holding every token string at once
    # reads about 11x the text, a list of Python ints per entry about 6.2x.
    rng = np.random.default_rng(20)
    a = PolyMatrix(fd, rng.integers(1, fd.p, size=(1024, 32, 32)))
    text = pmio.serialize(a)
    tracemalloc.start()
    try:
        got = pmio.parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == a
    assert peak <= 6 * len(text), peak / len(text)
