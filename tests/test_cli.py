import io
import json

import pytest

from helpers import a1, a2, ex13_r1_q2, identity_morphism, p1, p2, product_fan, to_a1
from toricmld import fibration
from toricmld.cli import main
from toricmld.divisors import divisor
from toricmld.fans import fan
from toricmld.fibration import morphism
from toricmld.serialize import divisor_doc, fan_doc, morphism_doc


@pytest.fixture
def cli(monkeypatch, capsys):
    def invoke(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        return code, capsys.readouterr().out

    return invoke


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def ex13_morphism_path(tmp_path):
    return write_doc(tmp_path, "ex13.json", morphism_doc(to_a1(ex13_r1_q2())))


class TestReportShape:
    def test_keys_and_command(self, cli):
        code, out = cli(["delta", "--r", "2", "--eps", "1/2"])
        rep = json.loads(out)
        assert code == 0
        assert set(rep) == {"command", "status", "payload", "witnesses", "timing_ms"}
        assert rep["command"] == "delta"
        assert rep["status"] == "ok"
        assert rep["payload"] == {"delta": "1/2048"}
        assert rep["witnesses"] is None
        assert isinstance(rep["timing_ms"], float)

    def test_domain_error_exits_2(self, cli):
        code, out = cli(["delta", "--r", "2", "--eps", "2"])
        rep = json.loads(out)
        assert code == 2
        assert rep["status"] == "error"
        assert rep["payload"]["error"] == "DomainError"

    def test_decimal_eps_exits_1(self, cli):
        code, out = cli(["delta", "--r", "2", "--eps", "0.5"])
        rep = json.loads(out)
        assert code == 1
        assert rep["status"] == "validation_error"
        assert rep["payload"]["error"] == "ParseError"

    def test_deterministic_modulo_timing(self, cli, tmp_path):
        path = write_doc(tmp_path, "p2.json", fan_doc(p2()))
        reports = []
        for _ in range(2):
            code, out = cli(["mld", "--fan", path])
            assert code == 0
            rep = json.loads(out)
            del rep["timing_ms"]
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]


class TestValidate:
    def test_fan(self, cli):
        code, out = cli(["validate"], stdin=json.dumps(fan_doc(p2())))
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"] == {
            "kind": "fan",
            "valid": True,
            "rank": 2,
            "rays": 3,
            "max_cones": 3,
        }

    def test_morphism(self, cli):
        doc = morphism_doc(to_a1(ex13_r1_q2()))
        code, out = cli(["validate"], stdin=json.dumps(doc))
        rep = json.loads(out)
        assert code == 0
        p = rep["payload"]
        assert p["kind"] == "morphism"
        assert p["valid"] and p["compatible"] and p["is_contraction"] and p["is_proper"]
        assert p["relative_dimension"] == 1

    def test_non_primitive_ray(self, cli):
        doc = {"rank": 2, "rays": [[2, 4], [0, 1]], "max_cones": [[0, 1]]}
        code, out = cli(["validate"], stdin=json.dumps(doc))
        rep = json.loads(out)
        assert code == 1
        assert rep["status"] == "invalid"
        assert any(v[0] == "NonPrimitiveRay" for v in rep["payload"]["violations"])

    def test_cones_crossing_in_a_ray_of_neither(self, cli):
        rays = [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]
        doc = {"rank": 3, "rays": rays, "max_cones": [[0, 1], [2, 3]]}
        ca, cb = fan(3, rays, [(0, 1), (2, 3)], check=False).max_cones
        code, out = cli(["validate"], stdin=json.dumps(doc))
        rep = json.loads(out)
        assert code == 1
        assert rep["status"] == "invalid"
        assert rep["payload"] == {
            "valid": False,
            "violations": [["BadIntersection", f"cones {ca} and {cb}"]],
        }

    def test_malformed_json(self, cli):
        code, out = cli(["validate"], stdin="{")
        rep = json.loads(out)
        assert code == 1
        assert rep["status"] == "validation_error"
        assert rep["payload"]["error"] == "ParseError"


class TestPairCommands:
    def test_mld_smooth(self, cli, tmp_path):
        path = write_doc(tmp_path, "p2.json", fan_doc(p2()))
        code, out = cli(["mld", "--fan", path])
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"] == {"mld": "1", "witness": [-1, -1], "status": "exact"}
        assert rep["witnesses"] == {"witness": [-1, -1]}

    def test_pipe_example_family_into_mld(self, cli):
        code, fam_out = cli(["example-family", "--r", "1", "--q", "2"])
        assert code == 0
        code, out = cli(["mld", "--divisor", "zero"], stdin=fam_out)
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"]["mld"] == "3/5"
        assert rep["payload"]["witness"] == [0, 1]

    def test_mld_with_divisor_file(self, cli, tmp_path):
        f = p2()
        fan_path = write_doc(tmp_path, "p2.json", fan_doc(f))
        div_path = write_doc(tmp_path, "b.json", divisor_doc(divisor(f, ["1/2"] * 3)))
        code, out = cli(["mld", "--fan", fan_path, "--divisor", div_path])
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"]["mld"] == "1/2"

    def test_mld_divisor_length_mismatch(self, cli, tmp_path):
        fan_path = write_doc(tmp_path, "p2.json", fan_doc(p2()))
        div_path = write_doc(tmp_path, "b.json", {"coeffs": ["1", "1"]})
        code, out = cli(["mld", "--fan", fan_path, "--divisor", div_path])
        rep = json.loads(out)
        assert code == 1
        assert rep["status"] == "validation_error"

    def test_mld_at(self, cli, tmp_path):
        # canonical ray order of the plane fan: (-1,-1), (0,1), (1,0)
        path = write_doc(tmp_path, "p2.json", fan_doc(p2()))
        code, out = cli(["mld-at", "--fan", path, "--cone", "1,2"])
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"] == {"mld": "2", "witness": [1, 1], "status": "exact"}

    def test_eps_lc(self, cli, tmp_path):
        path = write_doc(tmp_path, "ex13.json", fan_doc(ex13_r1_q2()))
        code, out = cli(["eps-lc", "--fan", path, "--eps", "3/5"])
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"] == {"eps": "3/5", "eps_lc": True}
        code, out = cli(["eps-lc", "--fan", path, "--eps", "2/3"])
        assert json.loads(out)["payload"]["eps_lc"] is False


class TestFibrationCommands:
    def test_ample(self, cli, tmp_path):
        path = ex13_morphism_path(tmp_path)
        code, out = cli(["ample", "--morphism", path, "--divisor", "boundary"])
        assert code == 0
        assert json.loads(out)["payload"] == {"ample_over": True}
        code, out = cli(["ample", "--morphism", path, "--divisor", "zero"])
        assert json.loads(out)["payload"] == {"ample_over": False}

    def test_rel_trivial(self, cli, tmp_path):
        path = ex13_morphism_path(tmp_path)
        code, out = cli(["rel-trivial", "--morphism", path, "--divisor", "boundary"])
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"]["rel_trivial"] is True
        assert len(rep["payload"]["m"]) == 2  # functional on the source lattice
        code, out = cli(["rel-trivial", "--morphism", path, "--divisor", "zero"])
        rep = json.loads(out)
        assert rep["payload"] == {"rel_trivial": False, "m": None, "ell": None}

    def test_pullback(self, cli, tmp_path):
        path = ex13_morphism_path(tmp_path)
        code, out = cli(["pullback", "--morphism", path, "--ray", "0"])
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"] == {
            "ray": 0,
            "multiplicities": [{"ray": [-2, 5], "multiplicity": 5}],
        }

    def test_pullback_ray_out_of_range(self, cli, tmp_path):
        path = ex13_morphism_path(tmp_path)
        code, out = cli(["pullback", "--morphism", path, "--ray", "7"])
        assert code == 1
        assert json.loads(out)["status"] == "validation_error"

    def test_lct(self, cli, tmp_path):
        path = ex13_morphism_path(tmp_path)
        code, out = cli(["lct", "--morphism", path, "--divisor", "zero", "--ray", "0"])
        assert code == 0
        assert json.loads(out)["payload"] == {"lct": "1/5"}
        code, out = cli(["lct", "--morphism", path, "--divisor", "boundary"])
        assert json.loads(out)["payload"] == {"lct": "0"}

    def test_discriminant(self, cli, tmp_path):
        path = ex13_morphism_path(tmp_path)
        code, out = cli(["discriminant", "--morphism", path, "--divisor", "boundary"])
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"]["coeffs"] == ["1"]
        assert rep["payload"]["thresholds"] == ["0"]
        assert rep["payload"]["moduli_is_zero"] is True

    def test_discriminant_requires_rel_trivial(self, cli, tmp_path):
        path = ex13_morphism_path(tmp_path)
        code, out = cli(["discriminant", "--morphism", path, "--divisor", "zero"])
        rep = json.loads(out)
        assert code == 2
        assert rep["payload"]["error"] == "NotRelTrivial"

    def test_rel_mld_piped(self, cli):
        _, fam_out = cli(["example-family", "--r", "1", "--q", "2"])
        code, out = cli(["rel-mld", "--cone", "0", "--eps", "1/2"], stdin=fam_out)
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"]["status"] == "exact"
        assert rep["payload"]["value"] == "3/5"
        assert rep["payload"]["witness"] == [0, 1]

    @pytest.mark.parametrize("command", ["rel-mld", "verify-fano", "verify-adjunction"])
    def test_negative_radius_exits_2(self, cli, command):
        _, fam_out = cli(["example-family", "--r", "1", "--q", "2"])
        code, out = cli([command, "--divisor", "zero", "--radius", "-3"], stdin=fam_out)
        rep = json.loads(out)
        assert code == 2
        assert rep["payload"]["error"] == "DomainError"

    def test_rel_mld_budget_exhausted(self, cli, tmp_path, monkeypatch):
        monkeypatch.setattr(fibration, "_SEARCH_BUDGET", 3)
        src = a2()
        mpath = write_doc(tmp_path, "a2.json", morphism_doc(identity_morphism(src)))
        b = divisor(src, [1 if r == (0, 1) else 0 for r in src.rays])
        dpath = write_doc(tmp_path, "b.json", divisor_doc(b))
        code, out = cli(
            ["rel-mld", "--morphism", mpath, "--divisor", dpath, "--cone", "0,1", "--radius", "3"]
        )
        assert code == 0
        assert json.loads(out)["payload"] == {
            "status": "budget_exhausted",
            "radius": 3,
            "searched": 3,
        }

    def test_factor_mfs_piped(self, cli):
        _, fam_out = cli(["example-family", "--r", "2", "--q", "2"])
        code, out = cli(["factor-mfs"], stdin=fam_out)
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"]["a_e"] == "4/7"
        assert rep["payload"]["e_ray"] == [-1, 2, 0]
        assert rep["witnesses"] == {"e_ray": [-1, 2, 0]}
        for key in ["w", "pi", "g", "h"]:
            assert key in rep["payload"]
        assert rep["payload"]["g"]["source"] == rep["payload"]["w"]
        assert rep["payload"]["h"]["source"] == rep["payload"]["g"]["target"]

    def test_factor_mfs_rejects_low_relative_dimension(self, cli, tmp_path):
        path = ex13_morphism_path(tmp_path)
        code, out = cli(["factor-mfs", "--morphism", path])
        rep = json.loads(out)
        assert code == 2
        assert rep["status"] == "error"
        assert rep["payload"]["error"] == "RelativeDimensionTooSmall"


class TestExampleFamily:
    def test_payload_fields(self, cli):
        code, out = cli(["example-family", "--r", "1", "--q", "2"])
        rep = json.loads(out)
        assert code == 0
        p = rep["payload"]
        assert p["r"] == 1 and p["q"] == 2
        assert p["multiplicity"] == 5
        assert sorted(p["source"]["rays"]) == [[-2, 5], [-1, 0], [1, 0]]
        assert p["source"]["rays"][p["multiple_ray"]] == [-2, 5]

    def test_domain_error(self, cli):
        code, out = cli(["example-family", "--r", "0", "--q", "2"])
        assert code == 2
        assert json.loads(out)["payload"]["error"] == "DomainError"


class TestVerifyCommands:
    def test_verify_fano_pass(self, cli):
        _, fam_out = cli(["example-family", "--r", "1", "--q", "2"])
        code, out = cli(["verify-fano", "--eps", "1/2"], stdin=fam_out)
        rep = json.loads(out)
        assert code == 0
        assert rep["status"] == "pass"
        p = rep["payload"]
        assert p["passed"] is True
        assert all(p["hypotheses"].values())
        assert all(p["claims"].values())
        assert p["measurements"]["multiplicities"] == [5]
        assert p["measurements"]["multiplicity_bound"] == "8"

    def test_verify_fano_hypothesis_gated(self, cli):
        _, fam_out = cli(["example-family", "--r", "1", "--q", "2"])
        code, out = cli(["verify-fano", "--divisor", "boundary"], stdin=fam_out)
        rep = json.loads(out)
        assert code == 0
        assert rep["status"] == "hypothesis_failed"
        assert rep["payload"]["passed"] is True

    def test_verify_adjunction_with_probes(self, cli, tmp_path):
        src = product_fan(p1(), product_fan(p1(), a1()))
        tgt = product_fan(p1(), a1())
        f = morphism(((0, 1, 0), (0, 0, 1)), src, tgt)
        hb = divisor(src, [1 if r[0] != 0 else 0 for r in src.rays])
        mpath = write_doc(tmp_path, "m.json", morphism_doc(f))
        dpath = write_doc(tmp_path, "b.json", divisor_doc(hb))
        tau = str(tgt.rays.index((0, 1)))
        code, out = cli(
            [
                "verify-adjunction",
                "--morphism", mpath,
                "--divisor", dpath,
                "--cone", tau,
                "--eps", "1",
                "--probe=1,1",
                "--probe=-1,2",
            ]
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["status"] == "pass"
        assert rep["payload"]["claims"]["probe_1,1_mld_at_least_delta"] is True
        assert rep["payload"]["claims"]["probe_-1,2_mld_at_least_delta"] is True

    def test_verify_lc_pass(self, cli, tmp_path):
        src = product_fan(p1(), a1())
        f = to_a1(src)
        hb = divisor(src, [1 if r[1] == 0 else 0 for r in src.rays])
        mpath = write_doc(tmp_path, "m.json", morphism_doc(f))
        ppath = write_doc(tmp_path, "plus.json", divisor_doc(hb))
        code, out = cli(
            [
                "verify-lc",
                "--morphism", mpath,
                "--divisor", "zero",
                "--plus", ppath,
                "--cone", "0",
                "--eps", "1",
            ]
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["status"] == "pass"

    def test_verify_lc_hypothesis_gated(self, cli, tmp_path):
        src = product_fan(p1(), a1())
        f = to_a1(src)
        mpath = write_doc(tmp_path, "m.json", morphism_doc(f))
        code, out = cli(
            [
                "verify-lc",
                "--morphism", mpath,
                "--divisor", "boundary",
                "--plus", "boundary",
                "--cone", "0",
                "--eps", "1",
            ]
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["status"] == "hypothesis_failed"


class TestTightnessScan:
    def test_csv_bytes(self, cli):
        code, out = cli(["tightness-scan", "--r", "1", "--q", "2,3,10"])
        assert code == 0
        assert out == (
            "q,multiplicity,inverse_delta,ratio\n"
            "2,5,8,5/8\n"
            "3,11,18,11/18\n"
            "10,109,200,109/200\n"
        )

    def test_json_rows(self, cli):
        code, out = cli(["tightness-scan", "--r", "1", "--q", "2", "--out", "json"])
        rep = json.loads(out)
        assert code == 0
        assert rep["payload"]["rows"] == [
            {"q": 2, "multiplicity": 5, "inverse_delta": "8", "ratio": "5/8"}
        ]

    def test_rank_cap(self, cli):
        """r = 4, past the cap of 3 the scan once had, gives its row."""
        code, out = cli(["tightness-scan", "--r", "4", "--q", "2", "--out", "json"])
        assert code == 0
        (row,) = json.loads(out)["payload"]["rows"]
        assert (row["q"], row["multiplicity"]) == (2, 3263441)
        assert row["ratio"] == "3263441/968232702940866945220608"

    def test_bad_q_list(self, cli):
        code, out = cli(["tightness-scan", "--r", "1", "--q", "2,x"])
        assert code == 1
        assert json.loads(out)["status"] == "validation_error"
