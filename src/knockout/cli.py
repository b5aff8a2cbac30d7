"""Command-line entry points: run, verify, ablate-placeholder, sweep."""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

import click

from .config import ConfigError, parse_config
from .nn import TrainingDivergedError
from .verify import verify_all

# `runner` (training, the sweep, the worker pool) is imported inside the
# commands that use it, so `verify` never loads it.

_OUT_ROOT_ENV = "KNOCKOUT_OUT_ROOT"


def _load_config(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise click.ClickException(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise click.ClickException(f"invalid config {path}: {exc}") from exc


def _resolve_out(cfg_dir: str, out: str | None) -> Path:
    if out is not None:
        return Path(out)
    root = os.environ.get(_OUT_ROOT_ENV)
    if root:
        return Path(root) / cfg_dir
    return Path(cfg_dir)


def _apply_overrides(cfg, **overrides):
    """The config with each override that is not None, checked as the
    config's own values are."""
    try:
        return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        raise click.ClickException(f"invalid override: {exc}") from exc


@click.group()
def main():
    """Missing-input robustness experiments via training-time knockout."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, help="Output directory (overrides the config).")
@click.option("--seeds", default=None, type=int, help="Number of repetitions to run.")
@click.option("--jobs", default=1, type=click.IntRange(min=1), show_default=True,
              help="Worker processes; each trains and sweeps one (method, repetition).")
@click.option("--k-max", default=None, type=int, help="Largest pattern popcount to sweep.")
def cmd_run(config_path, out, seeds, jobs, k_max):
    """Train every configured method and write the sweep reports."""
    from .runner import run_experiment

    cfg = _apply_overrides(_load_config(config_path), repetitions=seeds, k_max=k_max)
    out_dir = _resolve_out(cfg.out_dir, out)
    try:
        artifacts = run_experiment(cfg, out_dir=out_dir, jobs=jobs)
    except (ValueError, KeyError, OSError, TrainingDivergedError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"wrote reports to {artifacts.out_dir}")


@main.command("verify")
@click.option("--joints", default=200, type=click.IntRange(min=1), show_default=True,
              help="Random joints for the exact marginalization theorem.")
@click.option("--seed", default=20240, type=click.IntRange(min=0), show_default=True)
def cmd_verify(joints, seed):
    """Run the exact-oracle identity suite and print one line per check."""
    results = verify_all(n_joints=joints, seed=seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.name}: {r.detail}")
    if failed:
        raise click.ClickException(
            "failing checks: " + ", ".join(r.name for r in failed)
        )
    click.echo(f"all {len(results)} checks passed")


@main.command("ablate-placeholder")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--values", default="0,2,4,6,8,10", show_default=True,
              help="Comma-separated placeholder magnitudes to train.")
@click.option("--out", default=None)
@click.option("--seeds", default=None, type=int)
@click.option("--jobs", default=1, type=click.IntRange(min=1), show_default=True,
              help="Worker processes; each trains and sweeps one model.")
def cmd_ablate(config_path, values, out, seeds, jobs):
    """Train one knockout model per placeholder value and sweep each."""
    from .runner import ablate_placeholder

    cfg = _apply_overrides(_load_config(config_path), repetitions=seeds)
    try:
        parsed_values = [float(v) for v in values.split(",") if v.strip()]
    except ValueError as exc:
        raise click.ClickException(f"bad --values: {exc}") from exc
    out_dir = _resolve_out(cfg.out_dir, out)
    try:
        artifacts = ablate_placeholder(cfg, parsed_values, out_dir=out_dir, jobs=jobs)
    except (ValueError, KeyError, OSError, TrainingDivergedError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"wrote ablation reports to {artifacts.out_dir}")


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--models", "models_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--out", default=None)
@click.option("--k-max", default=None, type=int)
def cmd_sweep(config_path, models_dir, out, k_max):
    """Evaluation-only sweep over previously saved models.

    Sweeps repetitions 0, 1, ... up to the first that has no saved model.
    """
    from .runner import sweep_saved_models

    cfg = _apply_overrides(_load_config(config_path), k_max=k_max)
    out_dir = _resolve_out(cfg.out_dir + "_sweep", out)
    try:
        artifacts = sweep_saved_models(cfg, models_dir, out_dir)
    except (ValueError, KeyError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"wrote sweep report to {artifacts.out_dir}")


if __name__ == "__main__":
    sys.exit(main())
