"""End-to-end CLI tests: output formats, exit codes, env handling."""
import contextlib
import csv
import io
import itertools
import json
import os
import time
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslb import cli, primes
from pslb.cli import main
from pslb.errors import DomainError
from pslb.primes import PrimeTable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "16")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "count"
    assert len(rows) == 10
    assert rows[5][6:8] == ["5760", "1485"]
    assert rows[0][2] == ""  # blank cell -> empty CSV field


def test_table_json_blanks_are_null(capsys):
    code, out, _ = run(capsys, "table", "16", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0][2] is None
    assert payload["rows"][5][2] == 30030


def test_table_text_format(capsys):
    code, out, _ = run(capsys, "--format", "text", "table", "9")
    assert code == 0
    assert "even_class" in out


def test_invalid_table_number_exits_1(capsys):
    code, _, err = run(capsys, "table", "99")
    assert code == 1
    assert "error" in err


def test_figure_outputs(capsys):
    code, out, _ = run(capsys, "figure", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1][1] == "30030"
    code, out, _ = run(capsys, "figure", "2", "--fit")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["mod_3", "slope", "intercept"]
    slopes = {int(r[0]): float(r[1]) for r in rows}
    assert slopes[0] > 2 * slopes[1] and slopes[0] > 2 * slopes[2]


def test_signature_command(capsys):
    code, out, _ = run(capsys, "signature", "2291")
    assert code == 0
    _, rows = parse_csv(out)
    assert ["29", "0", "non-core"] in rows


def test_signature_explicit_seeds(capsys):
    code, out, _ = run(capsys, "signature", "13", "--seeds", "2,3,5,7,11,13,17,19")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["1", "1", "3", "6", "2", "0", "13", "13"]


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--inner", "2310", "--outer", "30030")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 13
    assert rows[-1][10] == "465"   # cumulative true twins
    assert rows[-1][11] == "2517"  # cumulative new composites


def test_census_rejects_non_primorial(capsys):
    code, _, err = run(capsys, "census", "--inner", "2000", "--outer", "30030")
    assert code == 1
    assert "not a primorial" in err


def test_budget_exit_code_2(capsys):
    code, _, err = run(capsys, "census", "--inner", "2310", "--outer", "30030",
                       "--sieve-budget", "100")
    assert code == 2
    assert "budget" in err


def test_twins_budget_exit_code_2(capsys):
    code, out, err = run(capsys, "--sieve-budget", "1000", "twins", "--below", "5000")
    assert code == 2
    assert out == ""
    assert "primorial 30030 exceeds factor-sieve budget 1000" in err


def test_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("PSLB_SIEVE_BUDGET", "100")
    code, _, _ = run(capsys, "census", "--inner", "2310", "--outer", "30030")
    assert code == 2


def test_flag_overrides_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("PSLB_SIEVE_BUDGET", "100")
    code, _, _ = run(capsys, "census", "--inner", "2310", "--outer", "30030",
                     "--sieve-budget", "510510")
    assert code == 0


def test_goldbach_commands(capsys):
    code, out, _ = run(capsys, "goldbach", "68", "--pairs")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["7", "61"], ["31", "37"]]

    code, out, _ = run(capsys, "goldbach", "68", "--filter")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["7", "31"]

    code, out, _ = run(capsys, "goldbach", "68")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][:4] == ["68", "7", "61", "case-2a"]

    code, _, _ = run(capsys, "goldbach", "7")
    assert code == 1


def test_goldbach_filter_6(capsys):
    # the seeds of 6 are just 2, so the filter answers like the solver does
    code, out, err = run(capsys, "goldbach", "6", "--filter")
    assert (code, err) == (0, "")
    assert parse_csv(out)[1] == [["3"]]


def test_twins_count(capsys):
    code, out, _ = run(capsys, "twins", "--below", "30030", "--count")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["30030", "1484", "465"]]


def test_twins_listing(capsys):
    code, out, _ = run(capsys, "twins", "--below", "100")
    assert code == 0
    _, rows = parse_csv(out)
    assert ["29", "31"] in rows
    assert ["3", "5"] not in rows  # excluded: 5 is adjacent to a core seed zero


def test_audit_command(capsys):
    code, out, _ = run(capsys, "audit", "--scale", "small")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 18
    assert all(r[1] in ("pass", "pass-with-caveat") for r in rows)


def test_audit_single_claim(capsys):
    code, out, _ = run(capsys, "audit", "T3", "--scale", "small")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0][0] == "T3"


def test_cache_round_trip(capsys, tmp_path):
    path = str(tmp_path / "cache.sieve")
    code, out, _ = run(capsys, "cache", "build", "--limit", "50000", "--out-path", path)
    assert code == 0
    code, out, _ = run(capsys, "cache", "verify", path)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][1:] == ["50000", "5133"]


def test_cache_verify_corrupt(capsys, tmp_path):
    path = tmp_path / "cache.sieve"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    code, _, err = run(capsys, "cache", "verify", str(path))
    assert code == 1
    assert "magic" in err


# limit: pi(limit); 2 * 2**20 - 1 is the last limit whose odd integers fill one
# sieve window, and the bodies of 15 and 16 end in a full byte
CACHE_LIMITS = {2: 1, 3: 2, 15: 6, 16: 6, 17: 7, 10**6: 78_498,
                2 * 2**20 - 1: 155_611, 2 * 2**20: 155_611, 2 * 2**20 + 1: 155_611}


@pytest.mark.parametrize("limit", CACHE_LIMITS)
def test_cache_build_writes_a_saved_tables_bytes(capsys, tmp_path, limit):
    built, saved = tmp_path / "built.sieve", tmp_path / "saved.sieve"
    row = [[str(built), str(limit), str(CACHE_LIMITS[limit])]]
    code, out, _ = run(capsys, "cache", "build", "--limit", str(limit), "--out-path", str(built))
    assert code == 0 and parse_csv(out)[1] == row
    PrimeTable.packed(limit).save(saved)
    assert built.read_bytes() == saved.read_bytes()
    code, out, _ = run(capsys, "cache", "verify", str(built))
    assert code == 0 and parse_csv(out)[1] == row
    assert PrimeTable.load(built).prime_count == len(PrimeTable(limit).ordered_primes) == CACHE_LIMITS[limit]


# a body of 1,250,001 bytes, so verify reads it in two chunks of at most 1 MB,
# whose last byte holds one flag and seven padding bits
CHUNKED_LIMIT = 20_000_001


@pytest.fixture(scope="module")
def chunked_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("chunked") / "cache.sieve"
    PrimeTable.packed(CHUNKED_LIMIT).save(path)
    return path.read_bytes()


def with_checksum(blob: bytes) -> bytes:
    """blob with its header's CRC-32 made right for its limit and body."""
    crc = zlib.crc32(blob[17:], zlib.crc32(blob[5:13]))
    return blob[:13] + crc.to_bytes(4, "little") + blob[17:]


def flip(blob: bytes, at: int) -> bytes:
    return blob[:at] + bytes([blob[at] ^ 0x10]) + blob[at + 1 :]


VERIFY_REFUSALS = {
    "byte flipped past the first chunk": (lambda b: flip(b, 17 + 2**20 + 5), "checksum mismatch"),
    "truncated body": (lambda b: b[:-1], "expected 1250001 bitset bytes, found 1250000"),
    "one trailing byte": (lambda b: b + b"\x00", "expected 1250001 bitset bytes, found more"),
    "padding bit set": (lambda b: with_checksum(b[:-1] + bytes([b[-1] | 1])),
                        "padding bits set after the last flag"),
}


@pytest.mark.parametrize("name", VERIFY_REFUSALS)
def test_cache_verify_refuses_with_loads_message(capsys, tmp_path, chunked_cache, name):
    mutate, message = VERIFY_REFUSALS[name]
    path = tmp_path / "cache.sieve"
    path.write_bytes(mutate(chunked_cache))
    with pytest.raises(DomainError) as refused:
        PrimeTable.load(path)
    assert str(refused.value) == f"bad sieve cache: {message}"
    code, out, err = run(capsys, "cache", "verify", str(path))
    assert (code, out, err) == (1, "", f"error: bad sieve cache: {message}\n")


def test_cache_verify_refuses_a_limit_past_the_budget_before_the_body(capsys, tmp_path):
    path = tmp_path / "cache.sieve"
    path.write_bytes(with_checksum(b"PSLB\x02" + (10**12).to_bytes(8, "little") + bytes(4) + bytes(2**20)))
    argv = ["cache", "verify", str(path)]
    main(argv)  # the parser, built once per process, outside the trace
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, err = capsys.readouterr()
    assert code == 1 and peak < 64 * 2**10
    assert err.endswith("error: bad sieve cache: limit 1000000000000 is below 2 or past the "
                        "primality budget 100000000\n")


def test_cache_build_into_a_fifo_exits_1_with_nothing_sieved(capsys, tmp_path, monkeypatch):
    # a FIFO cannot seek back to the checksum, and opening one to write
    # would wait for a reader; both the build and a save refuse it unopened
    fifo = tmp_path / "cache.fifo"
    os.mkfifo(fifo)
    sieved = []

    def windows(limit):
        sieved.append(limit)
        yield from ()

    monkeypatch.setattr(primes, "_prime_windows", windows)
    code, out, err = run(capsys, "cache", "build", "--limit", "1000", "--out-path", str(fifo))
    assert (code, out, sieved) == (1, "", [])
    assert err == f"error: sieve cache output must be a file that can seek, got {fifo}\n"
    with pytest.raises(DomainError, match="can seek"):
        PrimeTable(1000).save(fifo)


@pytest.mark.parametrize("windows, message", [
    (2, "expected 312500 bitset bytes, found 262144"),  # of the 3 windows at 5e6
    (None, "checksum mismatch"),  # every window written, the checksum not
], ids=["two windows", "every window"])
def test_cache_build_cut_short_leaves_a_file_verify_refuses(capsys, tmp_path, monkeypatch, windows, message):
    path = tmp_path / "cache.sieve"
    sieve = primes._prime_windows

    def cut_short(limit):
        yield from itertools.islice(sieve(limit), windows)
        raise RuntimeError("cut short")

    monkeypatch.setattr(primes, "_prime_windows", cut_short)
    with pytest.raises(RuntimeError, match="cut short"):
        main(["cache", "build", "--limit", "5000000", "--out-path", str(path)])
    code, out, err = run(capsys, "cache", "verify", str(path))
    assert (code, out, err) == (1, "", f"error: bad sieve cache: {message}\n")


# printed product-factor and average cells of the scaffold tables, per column
SCAFFOLD_GOLDEN = {
    "17": {
        "product_factor": ["0.692308", "0.436373", "0.307356", "0.218553", "0.164156",
                           "0.126197", "0.098251", "0.079161", "0.064543"],
        "avg_T_M_in_N": ["10", "59", "456", "4868", "62162", "1003543", "21095426",
                         "492902698", "14065843393"],
        "reciprocal_product_factor": ["1.44", "2.29", "3.25", "4.58", "6.09", "7.92",
                                      "10.18", "12.63", "15.49"],
    },
    "19": {
        "product_factor": ["0.357032", "0.26007", "0.192841", "0.146876", "0.115224",
                           "0.091475", "0.074054", "0.061054"],
        "avg_T_A_in_C": ["5", "35", "286", "3272", "43632", "727428", "15900087", "380157930"],
    },
    "20": {
        "avg_T_A_in_C": ["5", "35", "286", "3272", "43632", "727428", "15900087", "380157930"],
        "avg_T_B_in_C": ["59", "456", "4868", "62162", "1003543", "21095426", "492902698",
                         "14065843393"],
    },
    "21": {
        "product_factor": ["0.692308", "0.436373", "0.307356", "0.218553", "0.164156",
                           "0.126197", "0.098251", "0.079161", "0.064543"],
        "avg_T_A_in_B": ["10", "59", "456", "4868", "62162", "1003543", "21095426",
                         "492902698", "14065843393"],
    },
}


@pytest.mark.parametrize("number", sorted(SCAFFOLD_GOLDEN))
def test_scaffold_table_cells_golden(capsys, number):
    code, out, _ = run(capsys, "table", number)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for column, cells in SCAFFOLD_GOLDEN[number].items():
        assert [r[column] for r in rows] == cells, column


def test_out_file(capsys, tmp_path):
    path = tmp_path / "t9.csv"
    code, _, _ = run(capsys, "table", "9", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("even_class")


def test_precision_flag(capsys):
    code, out, _ = run(capsys, "scaffold", "two", "--precision", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][6] == "0.69"


def test_negative_precision_exits_1(capsys):
    code, out, err = run(capsys, "--precision", "-1", "table", "17")
    assert code == 1
    assert out == ""
    assert "precision" in err


@pytest.mark.parametrize("precision", [str(2_000_000_000), str(10**30)])
def test_huge_precision_prints_as_1074(capsys, precision):
    _, expected, _ = run(capsys, "--precision", "1074", "table", "17")
    start = time.perf_counter()
    code, out, _ = run(capsys, "--precision", precision, "table", "17")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == expected


def test_cache_verify_flipped_body_byte(capsys, tmp_path):
    path = tmp_path / "cache.sieve"
    code, _, _ = run(capsys, "cache", "build", "--limit", "1000", "--out-path", str(path))
    assert code == 0
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF
    path.write_bytes(bytes(blob))
    code, out, err = run(capsys, "cache", "verify", str(path))
    assert code == 1
    assert out == ""
    assert "checksum" in err


def test_cache_verify_truncated_header(capsys, tmp_path):
    path = tmp_path / "cache.sieve"
    code, _, _ = run(capsys, "cache", "build", "--limit", "1000", "--out-path", str(path))
    assert code == 0
    path.write_bytes(path.read_bytes()[:8])
    code, _, err = run(capsys, "cache", "verify", str(path))
    assert code == 1
    assert "bad sieve cache" in err


def test_cache_verify_header_limit_below_2(capsys, tmp_path):
    path = tmp_path / "cache.sieve"
    limit, body = (1).to_bytes(8, "little"), b"\x00"
    crc = zlib.crc32(body, zlib.crc32(limit)).to_bytes(4, "little")
    path.write_bytes(b"PSLB\x02" + limit + crc + body)
    code, out, err = run(capsys, "cache", "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad sieve cache: limit")


@pytest.mark.parametrize("flag", [[], ["--pairs"], ["--filter"]])
def test_goldbach_past_factor_budget(capsys, flag):
    # the factor budget (510510) bounds census and twins, not goldbach
    code, out, _ = run(capsys, "goldbach", "600000", *flag)
    assert code == 0
    if not flag:
        assert parse_csv(out)[1][0][1:3] == ["7", "599993"]


def test_goldbach_over_primality_budget_exits_2(capsys):
    code, out, err = run(capsys, "goldbach", "100000002")
    assert code == 2
    assert out == ""
    assert "budget exceeded" in err


def test_cache_build_over_budget_exits_2(capsys, tmp_path):
    path = tmp_path / "cache.sieve"
    code, out, err = run(capsys, "cache", "build", "--limit", "100000001", "--out-path", str(path))
    assert code == 2
    assert out == ""
    assert "budget exceeded" in err
    assert not path.exists()


def test_signature_over_seed_budget_exits_2(capsys):
    # 10**17 falls in 47#, whose seed primes run to sqrt(47#) ~ 7.8e8
    code, out, err = run(capsys, "signature", str(10**17))
    assert code == 2
    assert out == ""
    assert "budget exceeded" in err


@pytest.mark.parametrize("seeds", ["2,x", ",", ""])
def test_signature_non_integer_seeds_exits_1(capsys, seeds):
    code, out, err = run(capsys, "signature", "2291", "--seeds", seeds)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--seeds" in err


def test_non_integer_env_budget_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("PSLB_SIEVE_BUDGET", "abc")
    code, out, err = run(capsys, "table", "9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "PSLB_SIEVE_BUDGET" in err


def test_cache_verify_missing_file_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "cache", "verify", str(tmp_path / "absent.sieve"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_out_into_missing_directory_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "table", "9", "--out", str(tmp_path / "absent" / "t9.csv"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_cache_build_into_missing_directory_exits_1(capsys, tmp_path):
    path = tmp_path / "absent" / "cache.sieve"
    code, out, err = run(capsys, "cache", "build", "--limit", "1000", "--out-path", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


FUZZ_INTS = st.sampled_from([-1, 0, 1, 2, 5, 30, 31, 2310, 30030, 510511, 10**17, 2**64]).map(str)
FUZZ_PRECISION = st.sampled_from([None, -1, 0, 17, 1074, 10**9, 10**30]).map(
    lambda p: [] if p is None else ["--precision", str(p)])
FUZZ_COMMAND = st.one_of(
    st.tuples(st.sampled_from(["table", "figure", "signature"]), FUZZ_INTS).map(list),
    st.tuples(st.just("goldbach"), FUZZ_INTS,
              st.sampled_from([[], ["--filter"], ["--potential-count"]]))
      .map(lambda t: [t[0], t[1], *t[2]]),
    FUZZ_INTS.map(lambda n: ["twins", "--below", n, "--count"]),
    st.tuples(FUZZ_INTS, FUZZ_INTS).map(lambda t: ["census", "--inner", t[0], "--outer", t[1]]),
    st.tuples(FUZZ_INTS, st.sampled_from(["2,3,5", "2,x", ",", "7,,11", "-3"]))
      .map(lambda t: ["signature", t[0], "--seeds", t[1]]),
)
FUZZ_ARGV = st.tuples(FUZZ_PRECISION, FUZZ_COMMAND).map(lambda t: t[0] + t[1])


@settings(max_examples=150, deadline=None)
@given(FUZZ_ARGV)
def test_argv_fuzz_exits_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), argv


# -- one parser per process ---------------------------------------------------


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    try:
        for argv in [["table", "2"], ["--format", "json", "table", "1"], ["figure", "1"],
                     ["scaffold", "two"], ["signature", "2291"], ["goldbach", "98"],
                     ["twins", "--below", "100", "--count"], ["audit", "T1"],
                     ["table", "99"], ["census", "--inner", "30", "--outer", "2310"]] * 2:
            main(argv)
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def test_format_does_not_leak_between_calls(capsys):
    _, out_json, _ = run(capsys, "--format", "json", "table", "2")
    _, out_csv, _ = run(capsys, "table", "2")
    assert json.loads(out_json)["columns"] == parse_csv(out_csv)[0]


def test_out_does_not_leak_between_calls(capsys, tmp_path):
    path = tmp_path / "t2.csv"
    run(capsys, "--out", str(path), "table", "2")
    code, out, _ = run(capsys, "table", "2")
    assert code == 0
    assert out == path.read_text()


@pytest.mark.parametrize("env", [None, "30030"])
def test_sieve_budget_does_not_leak_between_calls(capsys, monkeypatch, env):
    if env is not None:
        monkeypatch.setenv("PSLB_SIEVE_BUDGET", env)
    code, _, _ = run(capsys, "--sieve-budget", "9699690", "census", "--inner", "2310",
                     "--outer", "30030")
    assert code == 0
    code, out, err = run(capsys, "census", "--inner", "2310", "--outer", "9699690")
    assert code == 2
    assert out == ""
    assert f"exceeds factor-sieve budget {env or 510510}" in err


def test_usage_error_does_not_leak_into_the_next_call(capsys):
    _, expected, _ = run(capsys, "table", "2")
    with pytest.raises(SystemExit) as exc:
        main(["cache", "build", "--limit", "10"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "table", "2")[:2] == (0, expected)


def test_strict_does_not_leak_between_calls(capsys):
    assert run(capsys, "audit", "T1", "--strict")[0] == 0
    assert run(capsys, "audit", "T1")[0] == 0
