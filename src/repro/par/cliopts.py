"""Shared CLI plumbing for a sweep's watchdog and resume.

Every sweep-shaped entry point (``scenario``, ``report``, ``chaos``,
``atlas build``) exposes the same two flags; this module keeps their
definitions and the flag → :class:`~repro.par.executor.SweepPolicy`
translation in one place so the semantics cannot drift between
subcommands.
"""

from __future__ import annotations

import argparse
from typing import Any, Optional, Tuple

from repro.par.executor import SweepPolicy


def add_supervision_args(parser: argparse.ArgumentParser) -> None:
    """Add ``--task-timeout`` / ``--resume``.

    Either one gives the sweep a :class:`SweepPolicy` and, with a disk
    cache, a journal to resume from; omitting both leaves a sweep with
    no deadline and no journal.  At any setting the first failure ends
    the sweep.
    """
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-shard wall-clock budget: a worker "
                             "chunk past it ends the sweep with a "
                             "timeout (default: no deadline); journals "
                             "the sweep under a disk cache")
    parser.add_argument("--resume", action="store_true",
                        help="resume a failed or killed sweep: restore "
                             "completed shards from the result cache + "
                             "sweep journal and re-execute only the rest "
                             "(implies --cache)")


def supervision_from_args(ns: argparse.Namespace, cache: Optional[Any]
                          ) -> Tuple[Optional[SweepPolicy],
                                     Optional[str], bool]:
    """``(policy, journal_dir, resume)`` for :func:`repro.par.sweep_map`.

    Returns ``(None, None, False)`` — no deadline, no journal — when
    neither flag was given.
    """
    if not (ns.resume or ns.task_timeout is not None):
        return None, None, False
    journal_dir = cache.directory if cache is not None else None
    return (SweepPolicy(task_timeout=ns.task_timeout), journal_dir,
            bool(ns.resume))
