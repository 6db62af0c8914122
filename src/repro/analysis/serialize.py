"""JSON (de)serialisation of tuning results.

The paper's artifact exchanges tuning statistics as JSON files (one
per device/preset); this module provides the equivalent for our
:class:`~repro.env.tuning.TuningResult`, so results can be archived
and re-analysed without rerunning the experiments.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from pathlib import Path
from typing import Any, Dict, Union

from repro.env.environment import EnvironmentKind, TestingEnvironment
from repro.env.parameters import EnvironmentParameters
from repro.env.runner import TestRun
from repro.env.tuning import TuningResult
from repro.errors import AnalysisError, ReproError
from repro.memo import Memo

FORMAT_VERSION = 1


#: Each environment's parameters as a dict, built once: a campaign
#: serialises the same few hundred environments on every run it writes.
_PARAMETERS_MEMO = Memo("environment_parameters", maxsize=4096)
#: ``Memo`` is not thread-safe, and the service writes stats files on a
#: thread while its event loop journals other jobs' units.
_PARAMETERS_LOCK = threading.Lock()


def environment_to_dict(environment: TestingEnvironment) -> Dict[str, Any]:
    parameters = environment.parameters
    with _PARAMETERS_LOCK:
        cached = _PARAMETERS_MEMO.get_or_compute(
            parameters, lambda: dataclasses.asdict(parameters)
        )
    return {
        "kind": environment.kind.value,
        "env_key": environment.env_key,
        # A copy, so no caller can edit the memoized dict.
        "parameters": dict(cached),
    }


def environment_from_dict(payload: Dict[str, Any]) -> TestingEnvironment:
    try:
        kind = EnvironmentKind(payload["kind"])
        parameters = EnvironmentParameters(**payload["parameters"])
        return TestingEnvironment(
            kind=kind,
            parameters=parameters,
            env_key=payload["env_key"],
        )
    except (KeyError, TypeError, ValueError, ReproError) as error:
        raise AnalysisError(f"malformed environment payload: {error}")


def run_to_dict(run: TestRun) -> Dict[str, Any]:
    return {
        "test": run.test_name,
        "device": run.device_name,
        "environment": environment_to_dict(run.environment),
        "iterations": run.iterations,
        "instances_per_iteration": run.instances_per_iteration,
        "kills": run.kills,
        "seconds": run.seconds,
    }


def run_from_dict(payload: Dict[str, Any]) -> TestRun:
    try:
        return TestRun(
            test_name=payload["test"],
            device_name=payload["device"],
            environment=environment_from_dict(payload["environment"]),
            iterations=payload["iterations"],
            instances_per_iteration=payload["instances_per_iteration"],
            kills=payload["kills"],
            seconds=payload["seconds"],
        )
    except KeyError as error:
        raise AnalysisError(f"malformed run payload: missing {error}")


def tagged_run_to_dict(kind: EnvironmentKind, run: TestRun) -> Dict[str, Any]:
    """A run record that also names its tuning family.

    Campaign journals interleave runs from several kinds in one JSONL
    stream, so each record carries its kind (plain ``result_to_dict``
    files store the kind once, at the top level).
    """
    payload = run_to_dict(run)
    payload["kind"] = kind.value
    return payload


def tagged_run_from_dict(
    payload: Dict[str, Any]
) -> "tuple[EnvironmentKind, TestRun]":
    try:
        kind = EnvironmentKind(payload["kind"])
    except (KeyError, ValueError) as error:
        raise AnalysisError(f"malformed tagged run payload: {error}")
    return kind, run_from_dict(payload)


def jsonl_line(payload: Dict[str, Any]) -> str:
    """One compact JSONL record (no newline)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def iter_jsonl(
    path: Union[str, Path], tolerate_truncated_tail: bool = True
) -> "list[Dict[str, Any]]":
    """Parse a JSONL file, optionally forgiving a torn final line.

    A process killed mid-append leaves at most one incomplete trailing
    line; checkpoint recovery treats that as "the last record was never
    written" rather than as corruption.  An unparsable line anywhere
    else is a real error.
    """
    records: "list[Dict[str, Any]]" = []
    lines = Path(path).read_text().splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if tolerate_truncated_tail and number == len(lines):
                break
            raise AnalysisError(
                f"invalid JSONL in {path} at line {number}: {error}"
            )
    return records


def result_to_dict(result: TuningResult) -> Dict[str, Any]:
    payload = {
        "version": FORMAT_VERSION,
        "kind": result.kind.value,
        "runs": [run_to_dict(run) for run in result.runs],
    }
    # Additive field (format version unchanged): which execution
    # backend produced the runs.  Omitted when unknown, so archives
    # written before backend recording round-trip unchanged.
    if result.backend is not None:
        payload["backend"] = result.backend
    return payload


def result_from_dict(payload: Dict[str, Any]) -> TuningResult:
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise AnalysisError(
            f"unsupported stats format version: {version!r}"
        )
    kind = EnvironmentKind(payload["kind"])
    runs = [run_from_dict(entry) for entry in payload["runs"]]
    return TuningResult(kind=kind, runs=runs, backend=payload.get("backend"))


def save_result(result: TuningResult, path: Union[str, Path]) -> None:
    """Write a tuning result to a JSON file."""
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2))


def load_result(path: Union[str, Path]) -> TuningResult:
    """Read a tuning result from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise AnalysisError(f"invalid JSON in {path}: {error}")
    return result_from_dict(payload)
