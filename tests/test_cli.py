import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainforge import cli
from chainforge.cli import main
from chainforge.descriptor import parse
from chainforge.identify import AmbiguousParent, LimitExceeded, NonCollinearBundles
from chainforge.modelgen import read_model
from chainforge.module_db import default_database, save_database
from chainforge.synth import synthesize, write_scene
from helpers import (
    PAPER_CHAINS,
    field_values,
    json_values,
    registry_first,
    save_renamed_database,
)


@pytest.fixture()
def scene_path(tmp_path, db_path):
    path = tmp_path / "scene.json"
    code = main(
        [
            "synth",
            "--chain",
            "I-T0-G0",
            "--db",
            str(db_path),
            "--joints",
            "10,20",
            "--seed",
            "7",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestSynth:
    def test_marker_count(self, scene_path):
        doc = json.loads(scene_path.read_text())
        assert len(doc) == 4  # three masters plus the collinear joint's bundle

    def test_deterministic(self, tmp_path, db_path):
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert (
                main(
                    [
                        "synth",
                        "--chain",
                        "I-T0-G0",
                        "--db",
                        str(db_path),
                        "--joints",
                        "0,30",
                        "--seed",
                        "7",
                        "--out",
                        str(path),
                    ]
                )
                == 0
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_spurious_count_beyond_the_id_span(self, tmp_path, db_path, capsys):
        synth = ["synth", "--chain", "I-T0-G0", "--db", str(db_path), "--seed", "1"]
        assert main([*synth, "--spurious", "20000", "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spurious_count must be at most 10000")
        assert not (tmp_path / "s.json").exists()

    def test_bad_chain(self, tmp_path, db_path, capsys):
        code = main(
            [
                "synth",
                "--chain",
                "X0",
                "--db",
                str(db_path),
                "--joints",
                "",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "s.json"),
            ]
        )
        assert code == 1
        assert "position 0" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--sigma-pos", "nan", "--sigma-rot", "nan"], "sigma_pos"),
            (["--sigma-pos", "inf"], "sigma_pos"),
            (["--sigma-rot", "nan"], "sigma_rot"),
        ],
    )
    def test_non_finite_noise_exit_1(self, tmp_path, db_path, capsys, flags, name):
        path = tmp_path / "s.json"
        args = ["synth", "--chain", "I-T0-G0", "--db", str(db_path), "--joints", "10,20"]
        assert main([*args, "--seed", "7", "--out", str(path), *flags]) == 1
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("command", ["synth", "roundtrip"])
    @pytest.mark.parametrize(
        "flags, name",
        [(["--seed", "-1"], "seed"), (["--seed", "1", "--spurious", "-2"], "spurious_count")],
    )
    def test_negative_count_exit_1(self, tmp_path, db_path, capsys, command, flags, name):
        path = tmp_path / "s.json"
        args = [command, "--chain", "I-T0-G0", "--db", str(db_path), "--joints", "10,20", *flags]
        args += ["--out", str(path)] if command == "synth" else ["--trials", "1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be a non-negative integer")
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("command", ["synth", "roundtrip"])
    @pytest.mark.parametrize("chain", ["A-G'0", "G-G0", "W-S0"])
    def test_mate_without_connectors_exit_1(self, tmp_path, db_path, capsys, command, chain):
        path = tmp_path / "s.json"
        args = [command, "--chain", chain, "--db", str(db_path), "--seed", "1"]
        args += ["--out", str(path)] if command == "synth" else ["--trials", "1"]
        assert main(args) == 1
        assert "chain position 1: no connector mates" in capsys.readouterr().err
        assert not path.exists()

    def test_inverted_adapter_exit_1(self, tmp_path, db_path, capsys):
        path = tmp_path / "s.json"
        args = ["synth", "--chain", "A'-G0", "--db", str(db_path), "--seed", "1"]
        assert main([*args, "--out", str(path)]) == 1
        assert "type 'A' cannot be installed inverted" in capsys.readouterr().err
        assert not path.exists()


class TestIdentify:
    def test_out_directory_exit_1(self, scene_path, db_path, tmp_path, capsys):
        args = ["identify", "--scene", str(scene_path), "--db", str(db_path)]
        assert main([*args, "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_model_name_collision_exit_1(self, tmp_path, db, capsys):
        # A module serial equal to a derived link name (the input link of
        # I-001) leaves no model: exit 1 before any result is printed.
        db_file, scene, model = tmp_path / "db.json", tmp_path / "s.json", tmp_path / "m.xml"
        save_database(db, db_file)
        doc = json.loads(db_file.read_text())
        for entry in doc["modules"]:
            if entry["serial"] == "L-001":
                entry["serial"] = "I-001_in"
        db_file.write_text(json.dumps(doc))
        synth = ["synth", "--chain", "I-L0-G0", "--db", str(db_file), "--joints", "0"]
        assert main([*synth, "--seed", "7", "--out", str(scene)]) == 0
        capsys.readouterr()
        identify = ["identify", "--scene", str(scene), "--db", str(db_file)]
        assert main([*identify, "--out", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate link name 'I-001_in'\n"
        assert not model.exists()

    @pytest.mark.parametrize("flags", [[], ["--tree"]])
    def test_unobservable_angle_warns_once(self, tmp_path, db_path, capsys, monkeypatch, flags):
        # The caveat reaches stderr as one `warning:` line and raises no
        # Python warning; a note that two tree branches share prints once.
        scene = tmp_path / "s.json"
        synth = ["synth", "--chain", "T'-L0-G0", "--db", str(db_path), "--joints", "0"]
        assert main([*synth, "--seed", "7", "--out", str(scene)]) == 0
        capsys.readouterr()
        build_tree = cli.build_tree
        monkeypatch.setattr(cli, "build_tree", lambda *args: build_tree(*args) * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["identify", "--scene", str(scene), "--db", str(db_path), *flags]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: joint angle of T-001: no neighbor on the output side; "
            "joint angle is unobservable, reporting 0"
        ]

    def test_prints_chain_and_thetas(self, scene_path, db_path, capsys):
        assert main(["identify", "--scene", str(scene_path), "--db", str(db_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "I-T0-G0"
        assert out[1].startswith("theta I-001 10.0")
        assert out[2].startswith("theta T-001 20.0")

    def test_writes_model(self, scene_path, db_path, tmp_path, capsys):
        out_path = tmp_path / "robot.model.json"
        assert (
            main(
                [
                    "identify",
                    "--scene",
                    str(scene_path),
                    "--db",
                    str(db_path),
                    "--out",
                    str(out_path),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["metadata"]["description"] == ["I-T0-G0"]
        assert doc["metadata"]["method"] == "geometric"

    def test_optimization_method(self, scene_path, db_path, capsys):
        assert (
            main(
                [
                    "identify",
                    "--scene",
                    str(scene_path),
                    "--db",
                    str(db_path),
                    "--method",
                    "optimization",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.splitlines()[0] == "I-T0-G0"

    def test_no_tool_exit_2(self, tmp_path, db_path, capsys):
        scene = tmp_path / "notool.json"
        assert (
            main(
                [
                    "synth",
                    "--chain",
                    "L-l0",
                    "--db",
                    str(db_path),
                    "--joints",
                    "",
                    "--seed",
                    "2",
                    "--out",
                    str(scene),
                ]
            )
            == 0
        )
        code = main(["identify", "--scene", str(scene), "--db", str(db_path)])
        assert code == 2
        assert "NoToolModule" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, stage", [([], "build_chain"), (["--tree"], "build_tree")])
    def test_failure_names_its_stage(self, tmp_path, db_path, capsys, flags, stage):
        scene = tmp_path / "notool.json"
        synth = ["synth", "--chain", "L-l0", "--db", str(db_path), "--seed", "2"]
        assert main([*synth, "--out", str(scene)]) == 0
        capsys.readouterr()
        code = main(["identify", "--scene", str(scene), "--db", str(db_path), *flags])
        assert code == 2
        assert f"identification failed in {stage}: NoToolModule" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [
            NonCollinearBundles("bundle axes misaligned"),
            LimitExceeded("angle far outside limits"),
            AmbiguousParent("G-001", ["T-001", "T-002"]),
        ],
    )
    def test_identify_errors_exit_2(self, scene_path, db_path, monkeypatch, capsys, error):
        def fail(*_args, **_kwargs):
            raise error

        monkeypatch.setattr(cli, "build_chain", fail)
        code = main(["identify", "--scene", str(scene_path), "--db", str(db_path)])
        assert code == 2
        assert type(error).__name__ in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--eps1", "nan"], "epsilon1"),
            (["--f-threshold", "nan", "--method", "optimization"], "f_threshold"),
        ],
    )
    def test_nan_tolerance_exit_1(self, scene_path, db_path, capsys, flags, name):
        assert main(["identify", "--scene", str(scene_path), "--db", str(db_path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err

    def test_eps1_beyond_the_catalog_exit_1(self, scene_path, db_path, capsys):
        args = ["identify", "--scene", str(scene_path), "--db", str(db_path), "--eps1", "80"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epsilon1 (80.0 mm) must be well below" in captured.err

    def test_scene_not_an_array_exit_1(self, tmp_path, db_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text("{}")
        assert main(["identify", "--scene", str(scene), "--db", str(db_path)]) == 1
        assert "scene file must contain a JSON array" in capsys.readouterr().err

    def test_missing_db_exit_1(self, scene_path, tmp_path, capsys):
        code = main(
            ["identify", "--scene", str(scene_path), "--db", str(tmp_path / "nope.json")]
        )
        assert code == 1

    def test_rejected_markers_on_stderr(self, tmp_path, db_path, capsys):
        scene = tmp_path / "spurious.json"
        main(
            [
                "synth",
                "--chain",
                "I-T0-G0",
                "--db",
                str(db_path),
                "--joints",
                "10,20",
                "--seed",
                "7",
                "--spurious",
                "2",
                "--out",
                str(scene),
            ]
        )
        capsys.readouterr()
        assert main(["identify", "--scene", str(scene), "--db", str(db_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "I-T0-G0"
        assert captured.err.count("UnknownMarker") == 2

    def test_tree_flag(self, tmp_path, db_path, capsys):
        scene = tmp_path / "climb.json"
        from chainforge.descriptor import parse
        from chainforge.module_db import load_database
        from chainforge.synth import synthesize, write_scene

        text, thetas, serials = PAPER_CHAINS[3]
        obs = synthesize(parse(text), thetas, registry_first(load_database(db_path), serials))
        write_scene(scene, obs)
        assert main(["identify", "--scene", str(scene), "--db", str(db_path), "--tree"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "G'-I0-T'0-L0-T'90-T180-I'0-G0"
        assert len([line for line in out if not line.startswith("theta")]) == 2

    def test_env_var_db(self, scene_path, db_path, capsys, monkeypatch):
        monkeypatch.setenv("CHAINFORGE_DB", str(db_path))
        assert main(["identify", "--scene", str(scene_path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "I-T0-G0"

    def test_no_db_anywhere(self, scene_path, capsys, monkeypatch):
        monkeypatch.delenv("CHAINFORGE_DB", raising=False)
        assert main(["identify", "--scene", str(scene_path)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["identify", "--bogus"],
        ["identify", "--scene", "s.json", "--bogus"],
        ["parse"],
        ["roundtrip", "--chain", "I-T0-G0", "--seed", "3", "--trials", "x"],
        ["identify", "--scene", "s.json", "--method", "annealing"],
        [],
    ],
)
def test_argument_errors_exit_1(argv, capsys):
    # Exit 2 is kept for identification failures.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["identify", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_error_families():
    # main maps IdentifyError to exit 2 and ValueError (or OSError) to exit 1.
    from chainforge import (
        ChainSyntaxError,
        DatabaseError,
        IdentifyError,
        ModelParseError,
        SceneParseError,
        SynthError,
    )
    from chainforge.modelgen import InconsistentChain

    for fault in (ChainSyntaxError, DatabaseError, InconsistentChain, ModelParseError,
                  SceneParseError, SynthError):
        assert issubclass(fault, ValueError), fault
    assert not issubclass(IdentifyError, ValueError)
    assert cli.IdentifyError is IdentifyError


class TestCustomCatalog:
    CHAIN = "I-T'0-T'0-A0-t0-i0-h0"

    def test_renamed_type_round_trips(self, tmp_path, db, capsys):
        db_file, scene, model = tmp_path / "db.json", tmp_path / "s.json", tmp_path / "m.xml"
        save_renamed_database(db, db_file, "g", "h")
        synth = ["synth", "--chain", self.CHAIN, "--db", str(db_file), "--seed", "7"]
        assert main([*synth, "--joints", "15,-40,55,20,-40", "--out", str(scene)]) == 0
        capsys.readouterr()
        identify = ["identify", "--scene", str(scene), "--db", str(db_file)]
        assert main([*identify, "--out", str(model)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == self.CHAIN
        assert read_model(model).metadata["description"] == [self.CHAIN]

    def test_parse_checks_grammar_only(self, tmp_path, db_path):
        assert main(["parse", "--chain", "Z"]) == 0
        synth = ["synth", "--chain", "Z", "--db", str(db_path), "--seed", "1"]
        assert main([*synth, "--out", str(tmp_path / "s.json")]) == 1


class TestParse:
    def test_echoes_canonical(self, capsys):
        assert main(["parse", "--chain", "G'-I0-T'0-L0-T'90-T180-I'0-G0"]) == 0
        assert capsys.readouterr().out.strip() == "G'-I0-T'0-L0-T'90-T180-I'0-G0"

    def test_out_of_set_angle(self, capsys):
        assert main(["parse", "--chain", "I-T45-G0"]) == 1
        assert "45" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["parse", "synth", "roundtrip"])
    def test_caveats_print_as_warning_lines(self, tmp_path, db_path, capsys, command):
        # A token without a connection angle is read as 0; every command that
        # parses a chain says so on one `warning:` line per token, and no Python
        # warning leaves main.
        argv = [command, "--chain", "I-T'-G"]
        if command != "parse":
            argv += ["--db", str(db_path), "--joints", "10,20", "--seed", "1"]
            argv += ["--out", str(tmp_path / "s.json")] if command == "synth" else ["--trials", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert caught == []
        assert capsys.readouterr().err.splitlines() == [
            f"warning: token at position {k} has no connection angle; assuming 0" for k in (2, 5)
        ]


class TestDbValidate:
    def test_ok(self, db_path, capsys):
        assert main(["db-validate", "--db", str(db_path)]) == 0
        assert "ok types 11 modules 52" in capsys.readouterr().out

    def test_duplicate_marker_named(self, tmp_path, capsys):
        db = default_database()
        path = tmp_path / "dup.json"
        save_database(db, path)
        doc = json.loads(path.read_text())
        doc["modules"][1]["master_marker_id"] = doc["modules"][0]["master_marker_id"]
        path.write_text(json.dumps(doc))
        assert main(["db-validate", "--db", str(path)]) == 1
        assert str(doc["modules"][0]["master_marker_id"]) in capsys.readouterr().err

    @pytest.mark.parametrize("serial", ["T 001", "T\u0001001"])
    def test_serial_that_breaks_an_output_names_its_entry(self, tmp_path, capsys, serial):
        # A space would split a `theta` line; a control character is not
        # well-formed in the model XML.
        path = tmp_path / "bad.json"
        save_database(default_database(), path)
        doc = json.loads(path.read_text())
        doc["modules"][0]["serial"] = serial
        path.write_text(json.dumps(doc))
        assert main(["db-validate", "--db", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: modules[0]: ") and "Traceback" not in err

    def test_duplicate_serial_names_its_entry(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        save_database(default_database(), path)
        doc = json.loads(path.read_text())
        doc["modules"][1]["serial"] = doc["modules"][0]["serial"]
        path.write_text(json.dumps(doc))
        assert main(["db-validate", "--db", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: modules[1]: duplicate serial 'T-001'")
        assert "Traceback" not in err


class TestRoundtrip:
    def test_zero_noise_all_exact(self, db_path, capsys):
        code = main(
            [
                "roundtrip",
                "--chain",
                "I-T0-G0",
                "--db",
                str(db_path),
                "--joints",
                "10,20",
                "--trials",
                "5",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact 5" in out
        assert "method_agreement 1.000000" in out

    def test_noisy_reports_errors(self, db_path, capsys):
        code = main(
            [
                "roundtrip",
                "--chain",
                "I-T0-G0",
                "--db",
                str(db_path),
                "--joints",
                "10,20",
                "--sigma-pos",
                "2",
                "--sigma-rot",
                "2",
                "--trials",
                "5",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "theta_max_deg" in out

    @staticmethod
    def _roundtrip(db_path, capsys, chain, joints, *flags):
        argv = ["roundtrip", "--chain", chain, "--db", str(db_path), "--joints", joints]
        code = main([*argv, "--trials", "3", "--seed", "1", *flags])
        return code, capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "chain, joints", [("G'-I0-T'0-L0-T'90-T180-I'0-G0", "0,0,0,0,0"), ("G'-I0-G0", "0")]
    )
    def test_tool_at_each_end_either_reading_exact(self, db_path, capsys, chain, joints):
        # The walk starts from the base tool G-001, the lower marker id, and
        # so reads the chain from its other end.
        code, lines = self._roundtrip(db_path, capsys, chain, joints)
        assert code == 0
        assert "exact 3" in lines

    def test_joint_error_taken_per_module(self, db_path, capsys):
        # G'-T0-T'0-G0 reads the same from either end, but the reversed walk
        # lists T-002 first: each angle is compared with its own module's.
        code, lines = self._roundtrip(db_path, capsys, "G'-T0-T'0-G0", "10,20")
        assert code == 0
        assert lines[1:4] == ["exact 3", "theta_mean_deg 0.000000", "theta_max_deg 0.000000"]

    def test_single_tool_output_kept(self, db_path, capsys):
        flags = ("--sigma-pos", "2", "--sigma-rot", "2")
        code, lines = self._roundtrip(db_path, capsys, "I-T0-G0", "10,20", *flags)
        assert code == 0
        assert lines == [
            "trials 3",
            "exact 3",
            "theta_mean_deg 2.049990",
            "theta_max_deg 6.527135",
            "method_agreement 1.000000",
        ]

    def test_identification_failure_is_not_exact(self, db_path, capsys):
        # I-T0 has no tool: both back ends raise NoToolModule on every trial.
        code, lines = self._roundtrip(db_path, capsys, "I-T0", "10,20")
        assert code == 2
        assert lines == [
            "trials 3",
            "exact 0",
            "theta_mean_deg nan",
            "theta_max_deg nan",
            "method_agreement 0.000000",
        ]

    def test_zero_trials_usage_error(self, db_path):
        assert (
            main(
                [
                    "roundtrip",
                    "--chain",
                    "I-T0-G0",
                    "--db",
                    str(db_path),
                    "--joints",
                    "10,20",
                    "--trials",
                    "0",
                    "--seed",
                    "3",
                ]
            )
            == 1
        )

    @pytest.mark.parametrize("flag", ["--sigma-pos", "--sigma-rot"])
    def test_sigma_that_can_overflow_a_draw_exit_1(self, db_path, capsys, flag):
        argv = ["roundtrip", "--chain", "I-T0-G0", "--db", str(db_path), "--joints", "10,20"]
        assert main([*argv, "--seed", "1", "--trials", "2", flag, "1e308"]) == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite and at most 1e+300\n"


# Flag values: valid ones per flag, then the odd ones every flag may be given.
# Some valid chains need more modules of a type than the registry holds, or
# joints beyond their limits.
_VALID = {
    "--chain": ["I-T0-G0", "I-T'0-T'0-A0-t0-i0-g0", "T'-L0-G0", "G", "I-T0", "A-G'0", "I-T'-G",
                "G'-L0-L0-L0-L0-L0-L0-L0-G0"],
    "--joints": ["10,20", "", "15,-40,55,20,-40", "30", "500,0", "500"],
    "--sigma-pos": ["0", "2", "1e300"],
    "--sigma-rot": ["0", "2", "1e300"],
    "--dropout": ["0", "0.05", "1"],
    "--spurious": ["0", "3"],
    "--seed": ["0", "7"],
    "--eps1": ["20", "1"],
    "--eps2": ["0.05", "0.5"],
    "--f-threshold": ["0.5", "0"],
    "--method": ["geometric", "optimization"],
    "--format": ["xml", "json"],
    "--trials": [str(n) for n in range(-1, 4)],
}
_ODD = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1", str(10**30)]) | st.text(max_size=8)
_SCENE_FLAGS = ["--chain", "--db", "--joints", "--sigma-pos", "--sigma-rot", "--dropout",
                "--spurious", "--seed"]
_COMMANDS = {
    "identify": ["--scene", "--db", "--method", "--eps1", "--eps2", "--f-threshold", "--out",
                 "--format", "--tree"],
    "synth": [*_SCENE_FLAGS, "--out"],
    "roundtrip": [*_SCENE_FLAGS, "--trials"],
    "parse": ["--chain"],
    "db-validate": ["--db"],
}
# (path into the saved default database or scene) of fields an edited file changes.
_DB_FIELDS = [("types", 2, key) for key in ("kind", "body_length_mm", "joint_limits_deg")] + [
    ("modules", 12, key) for key in ("serial", "type_code", "master_marker_id")
]
_SCENE_FIELDS = [(k, key) for k in (0, 2) for key in ("marker_id", "t", "q")]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A directory holding a valid database and scenes, a scene without a tool,
    malformed files, and the paths of missing ones."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    db = default_database()
    save_database(db, root / "db.json")
    write_scene(root / "scene.json", synthesize(parse("I-T0-G0"), [10.0, 20.0], db))
    write_scene(root / "notool.json", synthesize(parse("I-T0"), [10.0, 20.0], db))
    for name in ("bad_db.json", "bad_scene.json", "bad_notool.json"):
        (root / name).write_text("[1, 2")
    (root / "out").mkdir()
    return root


def _edited(root, name: str, field: tuple, value) -> str:
    """The name of a copy of root/name with the value at `field` replaced."""
    doc = json.loads((root / name).read_text())
    owner = doc
    for key in field[:-1]:
        owner = owner[key]
    owner[field[-1]] = value
    (root / f"edited_{name}").write_text(json.dumps(doc))
    return f"edited_{name}"


def _one_in(draw, n: int) -> bool:
    return draw(st.sampled_from(range(n))) == 0


def _file(draw, root, name: str, fields: list, values) -> str:
    """`name`, or one time in five a missing, malformed or edited file's name."""
    if not _one_in(draw, 5):
        return name
    edit = draw(st.sampled_from(["missing", "malformed", "edited"]))
    if edit == "edited":
        return _edited(root, name, draw(st.sampled_from(fields)), draw(values))
    return "missing.json" if edit == "missing" else f"bad_{name}"


@st.composite
def _argv(draw, root):
    """A command line of one subcommand: each flag given nine times in ten, each
    file valid four times in five and each value valid nine times in ten."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag in _COMMANDS[command]:
        if _one_in(draw, 10):
            continue
        if flag == "--tree":
            argv.append(flag)
            continue
        if flag == "--db":
            value = str(root / _file(draw, root, "db.json", _DB_FIELDS, field_values))
        elif flag == "--scene":
            name = draw(st.sampled_from(["scene.json", "notool.json"]))
            value = str(root / _file(draw, root, name, _SCENE_FIELDS, json_values))
        elif flag == "--out":
            value = str(root / "out" / draw(st.sampled_from(["m.xml", "m.json", "s.json", ""])))
        elif flag == "--trials" or not _one_in(draw, 10):
            value = draw(st.sampled_from(_VALID[flag]))
        else:
            value = draw(_ODD)
        argv += [flag, value]
    return argv


class TestTotality:
    """Every command line ends in exit 0, 1 or 2 (or argparse's usage exit), and
    no traceback reaches standard error."""

    @given(data=st.data())
    @settings(
        max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_every_command_line_ends_in_an_exit_code(self, cli_files, monkeypatch, data):
        monkeypatch.delenv(cli.DB_ENV_VAR, raising=False)
        argv = data.draw(_argv(cli_files), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 1)
            else:
                assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
