"""Benchmark jobs by name, as ``tools/lpcounts.py``, ``tools/peaks.py`` and
``tools/refcheck.py`` take them: WORKLOAD for every job of a workload of
``perfbench/workloads.py``, WORKLOAD/JOB for one of its jobs, such as
``y-scaling/hk-eps0.2``.
"""

from __future__ import annotations


def select_jobs(names: list[str], workloads: dict) -> dict[str, list]:
    """{workload: its named jobs in benchmark order}, the workloads in the
    order of their first name, from ``workloads`` (``WORKLOADS``).  Raises
    ValueError naming every name that matches no workload or job."""
    chosen: dict[str, set] = {}
    unknown = []
    for name in names:
        workload, _, job_name = name.partition("/")
        picked = {job for job in workloads.get(workload, ())
                  if job.name == job_name or not job_name}
        if picked:
            chosen.setdefault(workload, set()).update(picked)
        else:
            unknown.append(name)
    if unknown:
        raise ValueError(f"unknown workload(s) or job(s): {', '.join(unknown)}; choose from "
                         f"{', '.join(sorted(workloads))}, each alone or as WORKLOAD/JOB")
    return {workload: [job for job in workloads[workload] if job in picked]
            for workload, picked in chosen.items()}
