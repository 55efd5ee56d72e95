"""Shared CLI plumbing for a sweep's failure policy.

Every sweep-shaped entry point (``scenario``, ``report``, ``chaos``,
``atlas build``) exposes the same three supervision flags; this module keeps
their definitions and the flag → :class:`~repro.par.executor.SweepPolicy`
translation in one place so the semantics cannot drift between
subcommands.  ``chaos`` layers its own ``--proc-faults`` handling on
top (see :mod:`repro.faults.chaos`).
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Any, Optional, Tuple

from repro.par.executor import DEFAULT_SWEEP_RETRY, SweepPolicy


def add_supervision_args(parser: argparse.ArgumentParser) -> None:
    """Add ``--max-retries`` / ``--task-timeout`` / ``--resume``.

    Giving any of them gives the sweep a :class:`SweepPolicy`
    (watchdog, retry/quarantine) and, with a disk cache, a journal to
    resume from; omitting all three leaves the executor's zero policy —
    the first failure ends the sweep as itself.
    """
    parser.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="supervised execution: retries before a "
                             "failing shard is quarantined (default "
                             f"{DEFAULT_SWEEP_RETRY.max_retries}); "
                             "giving this flag opts into supervision")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="supervised execution: per-shard wall-clock "
                             "budget enforced by the watchdog (default: "
                             "no deadline); giving this flag opts into "
                             "supervision")
    parser.add_argument("--resume", action="store_true",
                        help="resume a killed sweep: restore completed "
                             "shards from the result cache + sweep "
                             "journal and re-execute only the rest "
                             "(implies --cache)")


def supervision_from_args(ns: argparse.Namespace, cache: Optional[Any],
                          seed: int = 0, strict: bool = True
                          ) -> Tuple[Optional[SweepPolicy],
                                     Optional[str], bool]:
    """``(policy, journal_dir, resume)`` for :func:`repro.par.sweep_map`.

    Returns ``(None, None, False)`` — the zero policy, no journal — when
    none of the supervision flags were given.
    ``strict=True`` (the default for result-bearing sweeps like figure
    grids) re-raises quarantined shards at the end; the chaos harness
    uses ``strict=False`` to report them instead.
    """
    if not (ns.resume or ns.max_retries is not None
            or ns.task_timeout is not None):
        return None, None, False
    retry = DEFAULT_SWEEP_RETRY
    if ns.max_retries is not None:
        retry = dataclasses.replace(retry, max_retries=ns.max_retries)
    policy = SweepPolicy(task_timeout=ns.task_timeout, retry=retry,
                         seed=seed, strict=strict)
    journal_dir = cache.directory if cache is not None else None
    return policy, journal_dir, bool(ns.resume)
