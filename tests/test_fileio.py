import json
import re
from pathlib import Path

import numpy as np
import pytest

from ddaenorm import (
    DdaeSystem,
    SchemaError,
    build_from_dict,
    eval_T,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
)
from conftest import make_sys_a, transfer_matrix

DATA = Path(__file__).parent / "data"


def sys_a_doc():
    return system_to_dict(make_sys_a(), name="sys-a")


class TestSystemFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 4
        sys = DdaeSystem(
            E=rng.standard_normal((n, n)),
            A=(rng.standard_normal((n, n)), rng.standard_normal((n, n)) / 3.0),
            B=rng.standard_normal((n, 2)) * 0.1,
            C=rng.standard_normal((1, n)) * 7.0,
            tau=[np.pi],
        )
        path = tmp_path / "sys.json"
        save_system(sys, path)
        back = load_system(path)
        for a, b in [(sys.E, back.E), (sys.B, back.B), (sys.C, back.C), (sys.tau, back.tau)]:
            np.testing.assert_array_equal(a, b)
        for a, b in zip(sys.A, back.A):
            np.testing.assert_array_equal(a, b)

    def test_save_is_deterministic(self, tmp_path):
        sys = make_sys_a()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_system(sys, p1)
        save_system(sys, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_missing_key(self):
        doc = sys_a_doc()
        del doc["E"]
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_schema_negative_delay(self):
        doc = sys_a_doc()
        doc["delays"] = [-1.0, 2.0]
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_dimension_cross_check(self):
        doc = sys_a_doc()
        doc["B"] = [[1.0]]
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_delay_matrix_count_mismatch(self):
        doc = sys_a_doc()
        doc["delays"] = [1.0]
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_delays_canonicalized_increasing(self):
        doc = sys_a_doc()
        doc["delays"] = [2.0, 1.0]
        doc["A"] = [doc["A"][0], doc["A"][2], doc["A"][1]]
        sys = system_from_dict(doc)
        np.testing.assert_array_equal(sys.tau, [1.0, 2.0])
        assert sys.A[1][1][1] == pytest.approx(0.25)

    def test_duplicate_delays_merged(self):
        doc = sys_a_doc()
        doc["delays"] = [1.0, 1.0]
        sys = system_from_dict(doc)
        assert sys.m == 1
        assert sys.A[1][1][1] == pytest.approx(0.25 - 0.5)

    def test_all_zero_delayed_block_dropped(self):
        doc = sys_a_doc()
        doc["delays"] = [1.0, 2.0, 3.0]
        doc["A"] = doc["A"] + [[[0.0, 0.0], [0.0, 0.0]]]
        sys = system_from_dict(doc)
        np.testing.assert_array_equal(sys.tau, [1.0, 2.0])
        for a, b in zip(sys.A, make_sys_a().A, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_delay_within_merge_tol_folds_into_a0(self):
        doc = sys_a_doc()
        doc["delays"] = [1e-13, 2.0]
        sys = system_from_dict(doc)
        np.testing.assert_array_equal(sys.tau, [2.0])
        np.testing.assert_array_equal(sys.A[0], np.add(doc["A"][0], doc["A"][1]))
        np.testing.assert_array_equal(sys.A[1], doc["A"][2])

    def test_schema_is_checked_once(self, tmp_path, monkeypatch):
        import jsonschema
        from ddaenorm import fileio
        path = tmp_path / "sys.json"
        save_system(make_sys_a(), path)
        cls = jsonschema.validators.validator_for(fileio._validator("system.schema.json").schema)
        calls = []
        check = cls.check_schema
        monkeypatch.setattr(cls, "check_schema",
                            classmethod(lambda c, schema, **kw: calls.append(1) or check(schema)))
        fileio._validator.cache_clear()
        load_system(path)
        load_system(path)
        assert calls == [1]

    @pytest.mark.parametrize("key, value, message", [
        ("E", [[True, 0.0], [0.0, 0.0]], "True is not of type 'number' (at E/0/0)"),
        ("C", [["2", 1.0]], "'2' is not of type 'number' (at C/0/0)"),
        ("C", [[None, 1.0]], "None is not of type 'number' (at C/0/0)"),
        ("B", [[], [1.0]], "[] should be non-empty (at B/0)"),
        ("B", [], "[] should be non-empty (at B)"),
        ("C", [2.0, 1.0], "1.0 is not of type 'array' (at C/1)"),
        ("E", [[[1.0], [0.0]], [[0.0], [0.0]]], "[0.0] is not of type 'number' (at E/1/1)"),
    ], ids=["bool", "string", "null", "empty-row", "empty-matrix", "flat-row", "nested"])
    def test_matrix_entry_messages(self, key, value, message):
        doc = sys_a_doc()
        doc[key] = value
        with pytest.raises(SchemaError) as err:
            system_from_dict(doc)
        assert str(err.value) == f"system.schema.json: {message}"

    def test_bool_inside_list_of_matrices(self):
        doc = sys_a_doc()
        doc["A"][1][1][1] = False
        with pytest.raises(SchemaError, match=re.escape("False is not of type 'number' "
                                                        "(at A/1/1/1)")):
            system_from_dict(doc)

    def test_ragged_rows_pass_the_schema(self):
        # the schema allows rows of unequal length; the conversion names the matrix
        for key, label in [("E", "E"), ("B", "B"), ("A", "A[1]")]:
            doc = sys_a_doc()
            rows = doc[key][1] if key == "A" else doc[key]
            rows[-1] = rows[-1][:-1] if len(rows[-1]) > 1 else rows[-1] + [0.0]
            with pytest.raises(SchemaError, match=rf"^{re.escape(label)} has rows of unequal"):
                system_from_dict(doc)

    def test_integer_entries_accepted(self):
        doc = sys_a_doc()
        doc["C"] = [[2, 1]]
        np.testing.assert_array_equal(system_from_dict(doc).C, [[2.0, 1.0]])

    def test_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        with pytest.raises(SchemaError):
            load_system(bad)


class TestBuild:
    def test_empty_steps_pass_through_plant(self):
        doc = {
            "plant": {"A": [[-1.0]], "B1": [[1.0]], "B2": [[2.0]],
                      "C": [[1.0]], "D1": [[0.0]], "F": [[3.0]]},
            "steps": [],
        }
        sys = build_from_dict(doc)
        assert sys.n == 1 and sys.m == 0
        np.testing.assert_array_equal(sys.E, np.eye(1))
        # z = 3 x, x' = -x + 2 w  ->  T(0) = 6
        assert eval_T(sys, 0.0)[0, 0] == pytest.approx(6.0)

    def test_close_feedback_step(self):
        doc = {
            "plant": {"A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]],
                      "C": [[1.0]], "D1": [[0.0]], "F": [[1.0]]},
            "controller": {"K": [[0.5]], "tau": 1.0},
            "steps": [{"op": "close_feedback"}],
        }
        sys = build_from_dict(doc)
        assert sys.n == 3 and sys.m == 1
        lam = 1j * 0.9
        want = 1.0 / (lam + 1.0 - 0.5 * np.exp(-lam))
        assert abs(eval_T(sys, 0.9)[0, 0] - want) < 1e-12

    def test_step_chain(self):
        doc = {
            "plant": {"A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]],
                      "C": [[1.0]], "D1": [[0.0]], "F": [[1.0]]},
            "controller": {"K": [[0.5]], "tau": 1.0},
            "steps": [
                {"op": "close_feedback"},
                {"op": "eliminate_feedthrough", "D2": [[2.0]]},
            ],
        }
        sys = build_from_dict(doc)
        lam = 1j * 1.3
        want = 1.0 / (lam + 1.0 - 0.5 * np.exp(-lam)) + 2.0
        assert abs(eval_T(sys, 1.3)[0, 0] - want) < 1e-12

    def test_missing_step_params(self):
        doc = {"steps": [{"op": "eliminate_feedthrough"}]}
        with pytest.raises(SchemaError):
            build_from_dict(doc)

    def test_bool_matrix_entry_message(self):
        doc = {"plant": {"A": [[0.0]], "B1": [[1.0]], "B2": [[True]], "C": [[1.0]],
                         "D1": [[0.0]], "F": [[1.0]]}, "steps": []}
        with pytest.raises(SchemaError) as err:
            build_from_dict(doc)
        assert str(err.value) == ("interconnect.schema.json: True is not of type 'number' "
                                  "(at plant/B2/0/0)")

    def test_close_feedback_requires_controller(self):
        doc = {
            "plant": {"A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]],
                      "C": [[1.0]], "D1": [[0.0]], "F": [[1.0]]},
            "steps": [{"op": "close_feedback"}],
        }
        with pytest.raises(SchemaError):
            build_from_dict(doc)


class TestGoldenNeutralBuild:
    """The committed neutral-example fixture stays verified and byte-stable."""

    def fixture_doc(self):
        return json.loads((DATA / "neutral_example.json").read_text())

    def test_golden_transfer_verified_against_formula(self):
        sys = build_from_dict(self.fixture_doc())
        step = self.fixture_doc()["steps"][0]
        D, A0, A1 = step["D"][0][0], step["A0"][0][0], step["A1"][0][0]
        t1, t2 = step["tau1"], step["tau2"]
        for w in np.linspace(0.05, 30.0, 25):
            lam = 1j * w
            want = 1.0 / (lam * (1.0 + D * np.exp(-lam * t1)) - A0 - A1 * np.exp(-lam * t2))
            got = eval_T(sys, w)[0, 0]
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
            # cross-check through the independent direct evaluation
            assert abs(transfer_matrix(sys, w)[0, 0] - want) <= 1e-12 * max(abs(want), 1.0)

    def test_golden_file_byte_stable(self, tmp_path):
        sys = build_from_dict(self.fixture_doc())
        out = tmp_path / "built.json"
        save_system(sys, out)
        golden = (DATA / "neutral_example_system.json").read_bytes()
        assert out.read_bytes() == golden
