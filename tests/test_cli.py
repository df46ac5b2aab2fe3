import hashlib
import json

import pytest

from eopack import constructions, harness
from eopack.cli import main
from eopack.graph import complete, hypercube, path, star, write_graph6
from eopack.products import lex


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_rho_eo_p7(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--invariant", "rho-eo", "--g6", write_graph6(path(7))
    )
    assert code == 0
    assert out.splitlines()[0] == "4"


def test_compute_with_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "--invariant", "nu-i", "--g6", write_graph6(path(5)), "--witness",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2"
    assert lines[1] == "witness: 0-1 3-4"


def test_compute_vertex_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "--invariant", "gamma", "--g6", write_graph6(hypercube(3)),
        "--witness",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2"
    assert lines[1].startswith("witness: ")


def test_capacity_exit_code(capsys):
    big = write_graph6(hypercube(7))
    code, _, err = run_cli(capsys, "compute", "--invariant", "alpha", "--g6", big)
    assert code == 3
    assert "capacity" in err


@pytest.mark.parametrize("invariant", ["alpha", "beta", "rho-o"])
def test_vertex_cap_message_counts_vertices(capsys, monkeypatch, invariant):
    monkeypatch.delenv("EOPACK_MAX_VERTICES", raising=False)
    g6 = write_graph6(path(65))
    code, _, err = run_cli(capsys, "compute", "--invariant", invariant, "--g6", g6)
    assert code == 3
    assert "65 vertices exceed the exact-solver cap of 64" in err


def test_product_roundtrip(capsys):
    g6 = write_graph6(path(2))
    h6 = write_graph6(path(3))
    code, out, _ = run_cli(capsys, "product", "--kind", "lex", "--g", g6, "--h", h6)
    assert code == 0
    assert out.strip() == write_graph6(lex(path(2), path(3)).graph)


def test_product_rooted_needs_root(capsys):
    g6 = write_graph6(path(2))
    code, _, err = run_cli(capsys, "product", "--kind", "rooted", "--g", g6, "--h", g6)
    assert code == 2
    assert "root" in err


def test_witness_hypercube_eop(capsys):
    code, out, _ = run_cli(capsys, "witness", "--name", "hypercube-eop", "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "size: 8"
    assert lines[-1] == "VALID"


def test_witness_hamming_code(capsys):
    code, out, _ = run_cli(capsys, "witness", "--name", "hamming-code", "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "size: 2"
    assert lines[2] == "witness: 0 7"
    assert lines[-1] == "VALID"


def test_witness_box_eop(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness", "--name", "box-eop",
        "--g", write_graph6(star(2)), "--h", write_graph6(star(3)),
    )
    assert code == 0
    assert "size: 6" in out
    assert out.splitlines()[-1] == "VALID"


def test_check_subcommand_json(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "check", "--suite", "paths", "--json", str(out_path)
    )
    assert code == 0
    assert "paths-formulas pass" in out
    data = json.loads(out_path.read_text())
    assert data["summary"]["fail"] == 0
    assert data["checks"][0]["id"] == "paths-formulas"
    assert set(data["checks"][0].keys()) == {
        "id", "citation", "instances_run", "failures", "wall_ms", "status",
        "capacity_skips", "error",
    }


def test_check_exit_code_zero_on_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "spider-equality")
    assert code == 0
    assert "summary: total=1 pass=1 fail=0 skipped=0" in out


def test_table_hypercubes(capsys):
    code, out, _ = run_cli(capsys, "table", "--name", "hypercubes", "--max-n", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n rho_2 rho_3 rho_eo"
    assert lines[1] == "1 1 1 =1"
    assert lines[4] == "4 2 2 =8"
    assert lines[5] == "5 4 2 >=10"
    assert lines[6] == "6 8 4 >=24"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--invariant", "bogus", "--g6", "Bw"])
    assert exc.value.code == 2


def test_unknown_table(capsys):
    code, _, err = run_cli(capsys, "table", "--name", "nonesuch")
    assert code == 2
    assert "unknown table" in err


def test_compute_from_file(capsys, tmp_path):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text(
        write_graph6(path(7)) + "\n" + write_graph6(complete(3)) + "\n"
    )
    code, out, _ = run_cli(
        capsys, "compute", "--invariant", "rho-eo", "--file", str(corpus)
    )
    assert code == 0
    assert out.splitlines() == ["4", "1"]


def test_compute_requires_one_input(capsys):
    code, _, err = run_cli(capsys, "compute", "--invariant", "alpha")
    assert code == 2 and "exactly one" in err


def test_env_capacity_cap(capsys, monkeypatch):
    from eopack.graph import random_graph
    from eopack.invariants import clear_cache

    clear_cache()
    g6 = write_graph6(random_graph(5, "1/2", seed=77))
    monkeypatch.setenv("EOPACK_MAX_VERTICES", "3")
    code, _, err = run_cli(capsys, "compute", "--invariant", "alpha", "--g6", g6)
    assert code == 3 and "capacity" in err
    monkeypatch.delenv("EOPACK_MAX_VERTICES")
    code, out, _ = run_cli(capsys, "compute", "--invariant", "alpha", "--g6", g6)
    assert code == 0


def test_check_max_n_flag(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--suite", "lex-nu-equality", "--max-n", "2"
    )
    assert code == 0
    assert "lex-nu-equality pass instances=9" in out


def test_witness_prism_and_bipartite(capsys):
    q3 = write_graph6(hypercube(3))
    code, out, _ = run_cli(capsys, "witness", "--name", "prism-3packing", "--g6", q3)
    assert code == 0
    assert "size: 2" in out and out.splitlines()[-1] == "VALID"
    code, out, _ = run_cli(capsys, "witness", "--name", "bipartite-eop", "--g6", q3)
    assert code == 0
    assert "size: 3" in out and out.splitlines()[-1] == "VALID"


def test_witness_direct_im(capsys):
    p4 = write_graph6(path(4))
    code, out, _ = run_cli(capsys, "witness", "--name", "direct-im", "--g", p4, "--h", p4)
    assert code == 0
    assert "size: 2" in out and out.splitlines()[-1] == "VALID"


@pytest.mark.parametrize("value", ["abc", "-1"])
@pytest.mark.parametrize("var", ["EOPACK_MAX_ITEMS", "EOPACK_MAX_VERTICES"])
def test_malformed_env_cap_is_usage_error(capsys, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    code, out, err = run_cli(
        capsys, "compute", "--invariant", "rho-eo", "--g6", write_graph6(path(4))
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and var in err
    assert len(err.splitlines()) == 1


def test_check_error_exit_code(capsys, monkeypatch):
    import dataclasses

    from eopack.harness import REGISTRY

    def broken(run):
        raise ValueError("runner bug")

    patched = dataclasses.replace(REGISTRY["spider-equality"], runner=broken)
    monkeypatch.setitem(REGISTRY, "spider-equality", patched)
    code, out, _ = run_cli(capsys, "check", "--suite", "spider-equality")
    assert code == 1
    assert "spider-equality error instances=0 failures=0 (ValueError: runner bug)" in out
    assert "summary: total=1 pass=0 fail=0 skipped=0 error=1" in out


def test_compute_missing_file_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.g6"
    code, out, err = run_cli(capsys, "compute", "--invariant", "alpha", "--file", str(missing))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_check_unwritable_json_fails_before_the_suite(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "r.json"
    code, out, err = run_cli(capsys, "check", "--suite", "paths", "--json", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_check_suite_selecting_nothing_is_usage_error(capsys, tmp_path):
    report = tmp_path / "r.json"
    code, out, err = run_cli(
        capsys, "check", "--suite", "no-such-thing", "--json", str(report)
    )
    assert code == 2 and out == ""
    assert err == "error: --suite 'no-such-thing' selects no check\n"
    assert not report.exists()
    reports, summary = harness.run_suite("no-such")
    assert reports == [] and summary["total"] == 0


def test_negative_max_items_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--invariant", "rho-eo", "--g6", write_graph6(path(4)),
        "--max-items", "-5",
    )
    assert code == 2 and out == ""
    assert err == "error: --max-items must be a nonnegative integer, got -5\n"


def test_table_rows_are_verified(capsys, monkeypatch):
    from eopack import constructions

    code, out, _ = run_cli(capsys, "table", "--name", "hypercubes", "--max-n", "8")
    assert code == 0
    assert out.splitlines()[-2:] == ["7 16 8 >=56", "8 ? 16 >=128"]
    # an unverified witness makes the table exit 1
    monkeypatch.setattr(constructions, "verify_witness", lambda *a, **k: False)
    code, out, _ = run_cli(capsys, "table", "--name", "hypercubes", "--max-n", "5")
    assert code == 1
    assert out.splitlines()[-1] == "5 4 2 >=10"


def test_compute_binary_file_is_usage_error(capsys, tmp_path):
    import sys

    with open(sys.executable, "rb") as fh:
        head = fh.read(300)
    binary = tmp_path / "binary.g6"
    binary.write_bytes(head)
    code, out, err = run_cli(capsys, "compute", "--invariant", "alpha", "--file", str(binary))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(binary) in err


def test_successive_calls_share_no_parser_state(capsys):
    g6 = write_graph6(path(5))
    code, out, _ = run_cli(capsys, "compute", "--invariant", "nu-i", "--g6", g6, "--witness")
    assert code == 0 and out.splitlines() == ["2", "witness: 0-1 3-4"]
    code, out, _ = run_cli(capsys, "compute", "--invariant", "nu-i", "--g6", g6)
    assert code == 0 and out.splitlines() == ["2"]

    with pytest.raises(SystemExit) as exc:
        main(["compute", "--invariant", "bogus", "--g6", g6])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "compute", "--invariant", "alpha", "--g6", g6)
    assert code == 0 and out.splitlines() == ["3"]

    def help_text():
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    before = help_text()
    assert before.startswith("usage: eopack")
    run_cli(capsys, "compute", "--invariant", "rho-eo", "--g6", g6)
    assert help_text() == before


def test_compute_file_error_names_file_and_line(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\n!!\n")
    code, out, err = run_cli(capsys, "compute", "--invariant", "alpha", "--file", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line 2: out-of-range character at byte 0\n"
    # a --g6 string has no file or line to name
    code, _, err = run_cli(capsys, "compute", "--invariant", "alpha", "--g6", "!!")
    assert code == 2 and err == "error: out-of-range character at byte 0\n"


def test_compute_file_lone_carriage_return_stays_on_its_line(capsys, tmp_path):
    # a lone "\r" is no line break: the error names line 1, as the raw text does
    bad = tmp_path / "cr.g6"
    bad.write_bytes(b"Bw\rB\x14\n")
    code, out, err = run_cli(capsys, "compute", "--invariant", "alpha", "--file", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line 1: trailing bytes at byte 2\n"


def test_compute_file_with_crlf_lines(capsys, tmp_path):
    crlf = tmp_path / "crlf.g6"
    crlf.write_bytes(b"Bw\r\nBw\n")
    code, out, _ = run_cli(capsys, "compute", "--invariant", "alpha", "--file", str(crlf))
    assert code == 0 and out.splitlines() == ["1", "1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("check", "--max-n", "-2"), "--max-n"),
        (("check", "--budget", "-1"), "--budget"),
        (("table", "--name", "hypercubes", "--max-n", "-3"), "--max-n"),
        (("check", "--suite", "spider-eq", "--budget", "nan"), "--budget"),
    ],
)
def test_negative_size_flags_are_usage_errors(capsys, tmp_path, argv, flag):
    report = tmp_path / "r.json"
    if argv[0] == "check":
        argv += ("--json", str(report))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be a nonnegative ")
    assert len(err.splitlines()) == 1
    assert not report.exists()


def test_zero_size_flags_stay_valid(capsys):
    code, out, _ = run_cli(capsys, "table", "--name", "hypercubes", "--max-n", "0")
    assert code == 0 and out == "n rho_2 rho_3 rho_eo\n"
    code, out, _ = run_cli(
        capsys, "check", "--suite", "paths-formulas", "--max-n", "0", "--budget", "0"
    )
    assert code == 0
    assert "summary: total=1" in out


@pytest.mark.parametrize(
    "name, extra, build",
    [
        ("lex-im", (), constructions.lex_im_witness),
        ("lex-eop", ("--variant", "star_based"),
         lambda g, h: constructions.lex_eop_witness(g, h, "star_based")),
        ("lex-eop", ("--variant", "fiber_based"),
         lambda g, h: constructions.lex_eop_witness(g, h, "fiber_based")),
        ("direct-eop", (), constructions.direct_eop_witness),
        ("rooted-im", ("--root", "1"),
         lambda g, h: constructions.rooted_im_witness(g, h, 1)),
    ],
)
def test_witness_product_names(capsys, name, extra, build):
    g, h = path(4), star(3)
    code, out, _ = run_cli(
        capsys, "witness", "--name", name,
        "--g", write_graph6(g), "--h", write_graph6(h), *extra,
    )
    _, w = build(g, h)
    assert code == 0
    assert f"size: {len(w)}" in out.splitlines()
    assert out.splitlines()[-1] == "VALID"


def test_witness_rooted_im_needs_root(capsys):
    p4 = write_graph6(path(4))
    code, out, err = run_cli(capsys, "witness", "--name", "rooted-im", "--g", p4, "--h", p4)
    assert code == 2 and out == ""
    assert err == "error: rooted-im needs --root\n"


# sha256 of "<exit code>\n<stdout>" for every witness name and product kind, on
# the factors P_3 = Bg and C_4 = Cl; the digests were taken before the product
# rows and the CLI dispatch tables were rewritten, so they pin the old replies
_P3_C4 = ("--g", "Bg", "--h", "Cl")
_PINNED_REPLIES = [
    (("witness", "--name", "lex-im", *_P3_C4),
     "6e3fec99f00797b369fb86aa3defcaa35cf591c0f325cda180cf8668aeb4f03f"),
    (("witness", "--name", "lex-eop", *_P3_C4),
     "add9671f5b3c5df7282dd212740b026d554f75fc506d7b2c3a4fb9c6de194b5c"),
    (("witness", "--name", "lex-eop", *_P3_C4, "--variant", "fiber_based"),
     "3a307f752f3d2c58fed3838f001a3b85491d52cfd927b0b6e4936289d841d0fa"),
    (("witness", "--name", "direct-im", *_P3_C4),
     "e5b6313f25dcc558abbb5a5d6a6e8a3e7efe1ca5a14c664678544474521b2de1"),
    (("witness", "--name", "direct-eop", *_P3_C4),
     "4d732663826d8005ee1b58f84d88d8f031147014297d6c04ff38aadc2aa266a0"),
    # here the swapped orientation is the larger one
    (("witness", "--name", "direct-eop", "--g", "Cl", "--h", "Bg"),
     "dcdb14c7f2f4cb9fe0f4cded67cf8ff3500318b878ad885f10ec57c7e94036a2"),
    (("witness", "--name", "box-eop", *_P3_C4),
     "e29d27a6f2852b3a7c9d0ed88091f4431e5a71fc524d9c402168c41bc1a7a3e4"),
    (("witness", "--name", "box-eop", *_P3_C4, "--product-kind", "strong"),
     "614dda136b3f13f599075b5b25d044c6ed79ba8af6e9bae573df5685ea9c4fc3"),
    (("witness", "--name", "rooted-im", *_P3_C4, "--root", "1"),
     "eb329df014476b5877cce8482c0ed68b6d2c17cd83242803a8273eac04a5906a"),
    (("witness", "--name", "bipartite-eop", "--g6", "EhEG"),
     "df66ae71cfb1367802ee61e23b2194cfec66041841c09e4a6435b065d7ba831f"),
    (("witness", "--name", "prism-3packing", "--g6", "Ch"),
     "10591033c3da6460e9839a982ad9589f8466edfb97ddd6fa8fd59a013c21a7bb"),
    (("witness", "--name", "hamming-code", "--k", "2"),
     "13a325db3505d40b92ae0c09142530947b30ec5c7584dedc78cc4c6593b804f4"),
    (("witness", "--name", "hypercube-eop", "--k", "2"),
     "06552e61a543ef9d8eb468d3e5f7d9d99860daf4405822e6edc0d87d419029d1"),
    (("product", "--kind", "cartesian", *_P3_C4),
     "c0c2e221046a7bd8d836a22667f3a24e110c69f7471729e2a06043ffe592457c"),
    (("product", "--kind", "direct", *_P3_C4),
     "72f0891d4f9064193966b0dc32161d2c45e6ed372ba5e772fe11a91f96a3a1fd"),
    (("product", "--kind", "strong", *_P3_C4),
     "b71f6db073a4625c062c58cb40423de670c5a0398bc647f6a9009dd249db6d67"),
    (("product", "--kind", "lex", *_P3_C4),
     "4f4189c1502e9dab7ec874103359f182c1c882729e5bc164f0f082875bb6f281"),
    (("product", "--kind", "rooted", *_P3_C4, "--root", "1"),
     "f120878a49ec0987ce097a9ce8fcedb961373113d0f36f863cac3fad13c2f5fd"),
    (("product", "--kind", "corona", *_P3_C4),
     "eb2427c2c478a9321c9c0ec0be48963d07caf0d7c701dc9ffdfa9b657fc5b9e1"),
    (("product", "--kind", "join", *_P3_C4),
     "d46fd2cbc0a418d79022f16c0d7c0848db5bb6f7e3dd92c03b240b3ca202a0c4"),
]


@pytest.mark.parametrize(
    "argv, digest", _PINNED_REPLIES, ids=[" ".join(argv) for argv, _ in _PINNED_REPLIES]
)
def test_witness_and_product_replies_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest
