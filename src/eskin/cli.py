"""Command-line entry point: generate, train, eval, infer, report.

Exit codes are stable for scripting: 0 on success, else the ``exit_code``
of the toolkit error raised (see errors.py), or 2 when a file cannot be read
or written. ``train``, ``eval`` and ``infer`` take the contact mode from their
input; only ``generate`` has a ``--mode``. All file output goes through
atomic writes, so an error never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, apply_seed, load_config
from .core import (
    SCHEMA_SINGLE,
    SCHEMA_TWO,
    Dataset,
    _fmt,
    atomic_write_text,
    load_dataset,
    read_frames,
    read_text_file,
    save_dataset,
)
from .errors import ConfigError, CoverageError, EskinError
from .evalkit import cross_validate, load_report, write_report_files
from .pipeline import (
    load_pipeline,
    predict_batch,
    save_pipeline,
    single_estimate,
    train,
    two_estimate,
)
from .sim import generate_single_force_dataset, generate_two_force_dataset


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; a ConfigError exits 1
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """The type of --seed: numpy seeds its generators with ints >= 0 only."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file (else $ESKIN_CONFIG)")
    common.add_argument("--seed", type=_seed, help="override every seeded component")

    p = _Parser(
        prog="eskin",
        description="Synthetic capacitive e-skin decoupling toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser(
        "generate", parents=[common], help="write a protocol dataset CSV"
    )
    g.add_argument("--mode", choices=[SCHEMA_SINGLE, SCHEMA_TWO], default=SCHEMA_SINGLE)
    g.add_argument("--reps", type=int, help="repetitions per protocol cell")
    g.add_argument("--out", help="dataset CSV path")

    t = sub.add_parser("train", parents=[common], help="fit and save a model bundle")
    t.add_argument("data", help="dataset CSV")
    t.add_argument("--out", help="bundle JSON path")

    e = sub.add_parser("eval", parents=[common], help="cross-validate and report")
    e.add_argument("data", help="dataset CSV")
    e.add_argument("--k", type=int, help="number of folds")
    e.add_argument("--out", help="report output directory")
    e.add_argument("--emit-heatmaps", action="store_true")

    i = sub.add_parser("infer", parents=[common], help="estimate contacts for frames")
    i.add_argument("--bundle", required=True, help="trained model bundle")
    i.add_argument("--frames", required=True, help="frames CSV (20 channels)")
    i.add_argument("--out", help="estimates CSV path")

    r = sub.add_parser("report", parents=[common], help="render a saved report")
    r.add_argument("report_json", help="report.json from a previous eval")
    r.add_argument("--out", help="directory for re-emitted CSV/heatmaps")
    r.add_argument("--emit-heatmaps", action="store_true")
    return p


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = apply_seed(cfg, args.seed)
    return cfg


def cmd_generate(args) -> int:
    cfg = _load_run_config(args)
    if args.mode == SCHEMA_SINGLE:
        proto = cfg.single_protocol
        if args.reps is not None:
            proto = replace(proto, reps_per_cell=args.reps)
        ds = generate_single_force_dataset(cfg.model, proto)
        default_name = "dataset_single.csv"
    else:
        proto = cfg.two_protocol
        if args.reps is not None:
            proto = replace(proto, reps=args.reps)
        ds = generate_two_force_dataset(cfg.model, proto)
        default_name = "dataset_two.csv"
    out = Path(args.out) if args.out else Path(cfg.out_dir) / default_name
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    print(len(ds))
    return 0


def _check_full_grid(ds: Dataset) -> None:
    present = set(ds.node_ids().tolist())
    missing = sorted(set(range(1, 101)) - present)
    if missing:
        raise CoverageError(
            f"dataset lacks contact samples for node classes {missing}"
        )


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    ds = load_dataset(args.data)
    if ds.schema == SCHEMA_SINGLE:
        _check_full_grid(ds)
    p = train(ds, cfg.pipeline)
    kept, offered = p.force_model.train_inputs.shape[0], p.force_model.rows_offered
    if kept < offered:
        print(
            f"force GP kept {kept} of {offered} contact rows "
            f"(gp_cap {cfg.pipeline.gp_cap})",
            file=sys.stderr,
        )
    out = Path(args.out) if args.out else Path(cfg.out_dir) / f"bundle_{ds.schema}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_pipeline(p, out)
    print(out)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    ds = load_dataset(args.data)
    default_k = cfg.k_single if ds.schema == SCHEMA_SINGLE else cfg.k_two
    k = default_k if args.k is None else args.k
    report = cross_validate(ds, k, seed=cfg.seed, config=cfg.pipeline)
    out = Path(args.out) if args.out else Path(cfg.out_dir) / f"report_{ds.schema}"
    write_report_files(report, out, emit_heatmaps=args.emit_heatmaps)
    print(report.headline())
    return 0


def cmd_infer(args) -> int:
    cfg = _load_run_config(args)
    p = load_pipeline(args.bundle)
    x = read_text_file(args.frames, read_frames)
    pred = predict_batch(p, x)
    if p.mode == SCHEMA_SINGLE:
        lines = ["stretch,detected,node_x,node_y,force_n"]
        for i in range(len(x)):
            e = single_estimate(pred, i)
            lines.append(
                f"{_fmt(e.stretch)},{int(e.contact_detected)},"
                f"{e.node.x},{e.node.y},{_fmt(e.force)}"
            )
    else:
        lines = ["x1,y1,f1_n,x2,y2,f2_n"]
        for i in range(len(x)):
            contacts = two_estimate(pred, i).contacts
            lines.append(",".join(f"{n.x},{n.y},{_fmt(f)}" for n, f in contacts))
    text = "\n".join(lines) + "\n"
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "estimates.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out, text)
    print(out)
    return 0


def cmd_report(args) -> int:
    report = load_report(args.report_json)
    if args.out or args.emit_heatmaps:
        out = Path(args.out) if args.out else Path(args.report_json).parent
        write_report_files(report, out, emit_heatmaps=args.emit_heatmaps)
    print(report.headline())
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except EskinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
