"""Reference outputs the benchmark checks every run against.

Run from the repository root to regenerate ``perfbench/reference.json``::

    python3 perfbench/reference.py

The reference comes from plain serial, exhaustive ``run_campaign``
calls -- never from the engines the benchmark measures -- so a pruned,
parallel or served run is checked against the slow path:

- ``cells``: every campaign cell of the ``paper-serial`` and
  ``models-parallel`` workloads, as its tally, one outcome code per
  point in enumeration order, its Figure 4 crash latencies and a
  digest of its canonical per-point records;
- ``service``: for every (daemon, client, model) cell the
  ``service-loop`` workload submits, the record digest of the first
  24, 48 and 96 points (a ``max_points=N`` campaign runs exactly the
  first N points of the enumeration);
- ``renders``: digests of the rendered Tables 1/3/5 and Figure 4.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: one letter per outcome, so a cell's outcomes read as one string.
OUTCOME_CODES = {"NA": "a", "NM": "m", "SD": "s", "FSV": "f",
                 "BRK": "b", "HANG": "h", "HF": "x"}

#: record fields that describe how a result was produced (pruning
#: provenance, forensics, wire ordering), not what the experiment did.
_PROVENANCE = frozenset(("forensics", "class_id", "representative",
                         "order", "key"))


def canonical(record):
    """A serialized result record without its provenance fields."""
    return {name: value for name, value in record.items()
            if name not in _PROVENANCE}


def records_digest(records):
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(canonical(record), sort_keys=True)
                      .encode())
        digest.update(b"\n")
    return digest.hexdigest()


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def outcome_string(records):
    return "".join(OUTCOME_CODES[record["outcome"]] for record in records)


def cell_name(spec, max_points=None):
    name = "%s/%s/%s/%s" % (spec.daemon, spec.client, spec.encoding,
                            spec.fault_model)
    return name if max_points is None else "%s@%d" % (name, max_points)


def cell_summary(campaign):
    from repro.analysis import result_to_dict
    records = [result_to_dict(result) for result in campaign.results]
    return {"counts": campaign.counts(refined=True),
            "outcomes": outcome_string(records),
            "crash_latencies": campaign.crash_latencies(),
            "records_sha256": records_digest(records)}


def record():
    import workloads
    from repro.analysis import result_to_dict
    from repro.injection import run_campaign

    daemons = {}

    def serial(spec, max_points=None):
        daemon = daemons.get(spec.daemon)
        if daemon is None:
            daemon = daemons[spec.daemon] = spec.build_daemon()
        return run_campaign(daemon, spec.client, spec.client_factory(),
                            encoding=spec.encoding,
                            fault_model=spec.fault_model,
                            max_points=max_points)

    cells, paper = {}, []
    for spec in workloads.PAPER_CELLS + workloads.MODEL_CELLS:
        campaign = serial(spec)
        cells[cell_name(spec)] = cell_summary(campaign)
        if spec in workloads.PAPER_CELLS:
            paper.append((spec, campaign))
        print("%-40s %s" % (cell_name(spec), campaign.counts()),
              file=sys.stderr)
    renders = {name: text_digest(text) for name, text
               in workloads.render_paper_outputs(paper).items()}
    service = {}
    largest = max(workloads.SERVICE_MAX_POINTS)
    for spec in workloads.service_cells():
        records = [result_to_dict(result) for result
                   in serial(spec, largest).results]
        for size in workloads.SERVICE_MAX_POINTS:
            service[cell_name(spec, size)] = records_digest(
                records[:size])
    return {"cells": cells, "renders": renders, "service": service}


def load():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    payload = record()
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
