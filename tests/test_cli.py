import json

import pytest

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
