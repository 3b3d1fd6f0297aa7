"""Command-line front end: identify scenes, synthesize them, and round-trip.

Exit codes: 0 success, 1 usage or I/O errors, 2 identification failures.
Standard output carries only machine-parseable results; diagnostics go to
standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .descriptor import ChainDescriptor, ChainEntry, ChainSyntaxError, parse, serialize
from .geometry import wrap_angle
from .identify import (
    METHOD_GEOMETRIC,
    METHOD_OPTIMIZATION,
    IdentifyConfig,
    IdentifyError,
    build_chain,
    build_tree,
    to_descriptor,
)
from .modelgen import InconsistentChain, generate_model, write_model
from .module_db import DatabaseError, load_database
from .synth import (
    SceneConfig,
    SceneParseError,
    SynthError,
    assign_instances,
    read_scene,
    synthesize,
    write_scene,
)

DB_ENV_VAR = "CHAINFORGE_DB"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IDENTIFICATION = 2


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_USAGE, not argparse's 2,
    which is the identification-failure code here; subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="chainforge",
        description="Identify modular-robot kinematic chains from marker scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="identify a chain from a scene file")
    p_id.add_argument("--scene", required=True)
    _add_db_flag(p_id)
    default = IdentifyConfig()
    p_id.add_argument(
        "--method",
        choices=[METHOD_GEOMETRIC, METHOD_OPTIMIZATION],
        default=default.method,
    )
    p_id.add_argument("--eps1", type=float, default=default.epsilon1, help="neighbor slack, mm")
    p_id.add_argument("--eps2", type=float, default=default.epsilon2, help="collinearity slack")
    p_id.add_argument("--f-threshold", type=float, default=default.f_threshold)
    p_id.add_argument("--out", help="write the kinematic model here")
    p_id.add_argument("--format", choices=["xml", "json"], default=None)
    p_id.add_argument("--tree", action="store_true", help="grow from every tool module")

    p_sy = sub.add_parser("synth", help="synthesize a scene from a chain string")
    _add_scene_flags(p_sy)
    p_sy.add_argument("--out", required=True)

    p_rt = sub.add_parser("roundtrip", help="synthesize and re-identify repeatedly")
    _add_scene_flags(p_rt)
    p_rt.add_argument("--trials", type=int, required=True)

    p_pa = sub.add_parser("parse", help="echo the canonical form of a chain string")
    p_pa.add_argument("--chain", required=True)

    p_db = sub.add_parser("db-validate", help="load a database and report violations")
    _add_db_flag(p_db)
    return parser


def _add_db_flag(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--db",
        default=None,
        help=f"module database path (default: ${DB_ENV_VAR})",
    )


def _add_scene_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--chain", required=True)
    _add_db_flag(parser)
    parser.add_argument("--joints", default="", help="comma-separated joint angles, deg")
    parser.add_argument("--sigma-pos", type=float, default=0.0)
    parser.add_argument("--sigma-rot", type=float, default=0.0)
    parser.add_argument("--dropout", type=float, default=0.0)
    parser.add_argument("--spurious", type=int, default=0)
    parser.add_argument("--seed", type=int, required=True)


def _scene_config(args, trial: int = 0) -> SceneConfig:
    return SceneConfig(
        sigma_pos=args.sigma_pos,
        sigma_rot=args.sigma_rot,
        dropout_prob=args.dropout,
        spurious_count=args.spurious,
        seed=args.seed + trial,
    )


def _resolve_db_path(args) -> str:
    path = args.db or os.environ.get(DB_ENV_VAR)
    if not path:
        raise ValueError(f"no database given: pass --db or set {DB_ENV_VAR}")
    return path


def _parse_joints(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [float(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "identify": _cmd_identify,
        "synth": _cmd_synth,
        "roundtrip": _cmd_roundtrip,
        "parse": _cmd_parse,
        "db-validate": _cmd_db_validate,
    }[args.command]
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return handler(args)
        except IdentifyError as exc:
            stage = "build_tree" if getattr(args, "tree", False) else "build_chain"
            print(f"identification failed in {stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_IDENTIFICATION
        except (
            ChainSyntaxError,
            DatabaseError,
            InconsistentChain,
            SceneParseError,
            SynthError,
            ValueError,
            OSError,
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


def _print_warning(message, *_):
    """Show a Python warning (a parse caveat, say) as one `warning:` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def _cmd_identify(args) -> int:
    db_path = _resolve_db_path(args)
    db = load_database(db_path)
    observations = read_scene(args.scene)
    cfg = IdentifyConfig(
        epsilon1=args.eps1,
        epsilon2=args.eps2,
        f_threshold=args.f_threshold,
        method=args.method,
    )
    if args.tree:
        chains = build_tree(observations, db, cfg)
    else:
        chains = [build_chain(observations, db, cfg)]
    if args.out:
        model = generate_model(
            chains,
            db,
            metadata={
                "scene_path": args.scene,
                "database_path": db_path,
                "method": cfg.method,
                "config": {
                    "epsilon1": cfg.epsilon1,
                    "epsilon2": cfg.epsilon2,
                    "f_threshold": cfg.f_threshold,
                },
            },
        )
        write_model(model, args.out, args.format)
    for chain in chains:
        print(serialize(to_descriptor(chain)))
    printed = set()
    for chain in chains:
        for link in chain.links:
            if link.module.module_type.is_joint and link.module.serial not in printed:
                printed.add(link.module.serial)
                angle = "-" if link.joint_angle is None else f"{link.joint_angle:.6f}"
                print(f"theta {link.module.serial} {angle}")
    for marker_id, reason in chains[0].rejected_markers:
        print(f"rejected {marker_id} {reason}", file=sys.stderr)
    for note in dict.fromkeys(note for chain in chains for note in chain.warnings):
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK


def _cmd_synth(args) -> int:
    db = load_database(_resolve_db_path(args))
    desc = parse(args.chain)
    observations = synthesize(desc, _parse_joints(args.joints), db, cfg=_scene_config(args))
    write_scene(args.out, observations)
    print(f"scene {args.out} markers {len(observations)}")
    return EXIT_OK


def _reversed(desc: ChainDescriptor) -> ChainDescriptor:
    """The same chain read from its last entry: the tokens in reverse order, each
    prime flipped and the connection angles in reverse order.  A connector mate
    R_y(a) R_x(180) is its own inverse, so every angle holds either way."""
    angles = (None, *(e.connection_angle for e in desc.entries[:0:-1]))
    entries = zip(desc.entries[::-1], angles)
    return ChainDescriptor(tuple(ChainEntry(e.type_code, not e.inverted, a) for e, a in entries))


def _cmd_roundtrip(args) -> int:
    if args.trials <= 0:
        print("error: --trials must be positive", file=sys.stderr)
        return EXIT_USAGE
    db = load_database(_resolve_db_path(args))
    desc = parse(args.chain)
    joints = _parse_joints(args.joints)
    # The true angle of each joint module, by the serial synthesize places it under.
    records = assign_instances(desc, db)
    truth = dict(zip((r.serial for r in records if db.types[r.type_code].is_joint), joints))
    # A chain with a tool at each end may be walked from either tool.
    readings = {serialize(desc)}
    if len(records) > 1 and all(db.types[r.type_code].is_tool for r in (records[0], records[-1])):
        readings.add(serialize(_reversed(desc)))
    noiseless = (
        args.sigma_pos == 0.0
        and args.sigma_rot == 0.0
        and args.dropout == 0.0
    )
    exact = 0
    agree = 0
    theta_errors: list[float] = []
    for trial in range(args.trials):
        observations = synthesize(desc, joints, db, cfg=_scene_config(args, trial))
        chains = []
        for method in (METHOD_GEOMETRIC, METHOD_OPTIMIZATION):
            try:
                chains.append(build_chain(observations, db, IdentifyConfig(method=method)))
            except IdentifyError:
                chains.append(None)
        chain_geo, chain_opt = chains
        if (
            chain_geo is not None
            and chain_opt is not None
            and [(l.module.serial, l.connection_angle) for l in chain_geo.links]
            == [(l.module.serial, l.connection_angle) for l in chain_opt.links]
        ):
            agree += 1
        if chain_geo is not None and serialize(to_descriptor(chain_geo)) in readings:
            exact += 1
            for link in chain_geo.links:
                if link.joint_angle is not None and link.module.serial in truth:
                    error = wrap_angle(link.joint_angle - truth[link.module.serial])
                    theta_errors.append(abs(error))
    print(f"trials {args.trials}")
    print(f"exact {exact}")
    mean_err = float(np.mean(theta_errors)) if theta_errors else float("nan")
    max_err = float(np.max(theta_errors)) if theta_errors else float("nan")
    print(f"theta_mean_deg {mean_err:.6f}")
    print(f"theta_max_deg {max_err:.6f}")
    print(f"method_agreement {agree / args.trials:.6f}")
    if noiseless and exact != args.trials:
        print("error: zero-noise trials were not all exact", file=sys.stderr)
        return EXIT_IDENTIFICATION
    return EXIT_OK


def _cmd_parse(args) -> int:
    print(serialize(parse(args.chain)))
    return EXIT_OK


def _cmd_db_validate(args) -> int:
    db = load_database(_resolve_db_path(args))
    print(f"ok types {len(db.types)} modules {len(db.records)}")
    return EXIT_OK


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
