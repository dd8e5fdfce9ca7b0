"""Shared fixtures for the figure-regeneration benchmarks.

One :class:`FigureRunner` is shared across the whole benchmark session, so
figures that the paper derives from the same experiments (1/2/3/4, 5/6,
7/8, 9/10) reuse each other's sweeps instead of re-running them.

pytest takes no flags of ours, so this file is where the benchmarks read
their settings from the environment (nothing under ``src/repro`` does).
Profile selection: set ``REPRO_PROFILE`` to ``quick`` (default),
``standard`` (the paper's full 60-6000 client range) or ``full`` (long
measurement windows).  Set ``REPRO_JOBS`` to fan sweep points out over
that many worker processes (0 = one per CPU) — results are identical to
a serial run.  Set ``REPRO_STORE`` to a directory to mount the
content-addressed run store: points already recorded there (same spec,
same code fingerprint) are served from disk instead of re-simulated, so
a second benchmark run over unchanged code is nearly free.  An unknown
profile or a non-integer job count stops the session.  Regenerated
series are printed and also written to ``benchmarks/results/<figure>.txt``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core import PROFILES, FigureRunner, RunStore, resolve_jobs

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def figure_runner() -> FigureRunner:
    name = os.environ.get("REPRO_PROFILE", "quick").lower()
    if name not in PROFILES:
        pytest.exit(
            f"REPRO_PROFILE={name!r}: expected one of "
            f"{', '.join(sorted(PROFILES))}",
            returncode=pytest.ExitCode.USAGE_ERROR,
        )
    profile = PROFILES[name]
    raw_jobs = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = resolve_jobs(int(raw_jobs))
    except ValueError:
        pytest.exit(
            f"REPRO_JOBS={raw_jobs!r}: expected an integer "
            "(0 = one worker per CPU)",
            returncode=pytest.ExitCode.USAGE_ERROR,
        )
    store_dir = os.environ.get("REPRO_STORE")
    store = RunStore(store_dir) if store_dir else None
    print(
        f"\n[benchmarks] measurement profile: {profile.name} "
        f"({profile.points} sweep points, duration={profile.duration}s, "
        f"warmup={profile.warmup}s, jobs={jobs})"
    )
    if store is not None:
        print(f"[benchmarks] run store: {store.root} "
              f"({len(store)} entries, fingerprint {store.fingerprint})")
    return FigureRunner(profile=profile, verbose=True, jobs=jobs, store=store)


@pytest.fixture(scope="session")
def emit():
    """Print figure tables and persist them under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _emit(name: str, figs) -> None:
        blocks = [fig.table() for fig in figs]
        text = "\n\n".join(blocks)
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        payload = [fig.to_dict() for fig in figs]
        (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1))

    return _emit
