"""Shard journals and worker-side daemon reconstruction.

A parallel campaign (:mod:`repro.injection.fleet`) journals one
``<journal>.shardK`` JSONL file per worker.  This module holds what
every reader of that format shares -- the fleet's resume, ``repro
status``/``top``/``report`` and the offline loader in
:mod:`repro.analysis.serialize`:

* :func:`shard_journal_path` / :func:`discover_shard_journals` name
  and find the shard files of a base path, for any worker count (so
  the worker count may change between resumes, and journals written
  by earlier releases keep resuming);
* :func:`load_shard_journals` merges them into point-keyed records;
* :class:`RebuildDaemon` / :func:`default_daemon_factory` are the
  picklable recipe a worker uses to rebuild the parent's daemon.
"""

from __future__ import annotations

import glob
import re

# Profiling harnesses (perfbench/tracing.py) wrap the golden-run entry
# point by module attribute, so it stays importable from here.
from .golden import record_golden  # noqa: F401
from .runner import CampaignJournal


# ----------------------------------------------------------------------
# Worker-side daemon reconstruction

class RebuildDaemon:
    """Picklable recipe that rebuilds the parent's daemon in a worker.

    Daemons are deterministic compilations of fixed source, so a
    rebuild from the same class and constructor data is bit-identical
    to the parent's instance.
    """

    def __init__(self, daemon_class, kwargs):
        self.daemon_class = daemon_class
        self.kwargs = kwargs

    def __call__(self):
        return self.daemon_class(**self.kwargs)


def default_daemon_factory(daemon):
    """Zero-config factory for the stock daemons: reuse the class,
    carrying over the password database and FTP file tree when the
    daemon has them (the app-layer :class:`~repro.apps.common.Daemon`
    protocol)."""
    kwargs = {}
    for name in ("database", "files"):
        if hasattr(daemon, name):
            kwargs[name] = getattr(daemon, name)
    return RebuildDaemon(type(daemon), kwargs)


# ----------------------------------------------------------------------
# Shard journals

_SHARD_SUFFIX = re.compile(r"\.shard\d+$")


def shard_journal_path(journal, shard):
    return "%s.shard%d" % (journal, shard)


def discover_shard_journals(journal):
    """Existing shard files for a journal base path, sorted, for any
    previous worker count."""
    return sorted(path for path in glob.glob("%s.shard*" % journal)
                  if _SHARD_SUFFIX.search(path))


def load_shard_journals(paths, strict=True):
    """Merge a set of shard journals into ``(metas, results,
    quarantined)`` with the latter two keyed by point.  Duplicate keys
    (a point that moved shards between resumes) are harmless: the
    emulator is deterministic, so every copy carries the same record.
    ``strict=False`` salvage-loads each file (corrupt mid-file lines
    are quarantined with a warning and their points re-run).
    """
    metas = []
    results = {}
    quarantined = {}
    for path in paths:
        meta, shard_results, shard_quarantined = \
            CampaignJournal.load(path, strict=strict)
        if meta is not None:
            metas.append(meta)
        results.update(shard_results)
        quarantined.update(shard_quarantined)
    return metas, results, quarantined


def _record_key(record):
    """Point key of a serialized result record (journal records carry
    an explicit ``key``; worker payloads inline the point fields)."""
    key = record.get("key")
    if key is not None:
        return key
    from ..analysis.serialize import point_from_dict
    return point_from_dict(record).key
