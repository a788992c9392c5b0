"""Scenario sweeps: requests, grids, the parallel driver and the warehouse.

The contracts pinned here:

* a :class:`RunRequest` round-trips losslessly through JSON and its
  content-hash ``run_id`` is stable (and changes when the request does);
  malformed request JSON raises a ``repro.exceptions`` error, never a bare
  Python one (a hypothesis property over nested ``spec`` and ``signals``);
* ``run_simulation`` and ``run_request`` build a run the same way — equal
  summaries, not merely close ones;
* :class:`SweepSpec` materialisation is deterministic, collision-checked
  and keyed by run index, so execution order (shuffled, chunked, pooled)
  can never change a stored result;
* every boundary (sweep spec, request, engine, ``run_simulation``, the
  duration parser, the generator) refuses an out-of-range number or seed
  with a ``repro.exceptions`` error;
* the driver survives worker failures (recorded rows, not dead sweeps)
  and a killed sweep finishes idempotently on re-run with no duplicate
  rows, every stored summary matching a fresh in-process run at 1e-9;
* the SQLite store is WAL-mode, upsert-idempotent, injection-safe on
  ``order_by`` and exports what it ingested.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os
import sqlite3
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import OperatingSignals, run_simulation
from repro.config import get_system_config
from repro.engine import SimulationEngine
from repro.exceptions import ConfigurationError, SRapsError
from repro.sweep import (
    ResultsStore,
    RunRequest,
    SweepSpec,
    load_sweep_spec,
    run_request,
    run_sweep,
)
from repro.sweep.request import workload_spec_from_dict, workload_spec_to_dict
from repro.sweep.spec import WORKLOAD_VARIANTS
from repro.sweep.store import SUMMARY_COLUMNS
from repro.units import parse_duration
from repro.workloads import (
    BurstArrivals,
    JobSizeDistribution,
    PoissonArrivals,
    RuntimeDistribution,
    SyntheticWorkloadGenerator,
    UserPopulation,
    WaveArrivals,
    WorkloadSpec,
    busy_trace_spec,
)

from helpers import make_job, summary_drifts

#: One short in-process run is ~0.1 s on the tiny system; every sweep in
#: this module but the 64-run store gate stays below a dozen runs to keep
#: the file fast.
SHORT_S = 3600.0


def small_spec(name: str = "t", **overrides: object) -> SweepSpec:
    kwargs: dict[str, object] = dict(
        name=name,
        duration_s=SHORT_S,
        policies=("fcfs", "backfill"),
        n_seeds=2,
        root_seed=7,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# RunRequest serialisation

#: An int that JSON spells and ``float()`` cannot read.
HUGE = 10**400

#: Any JSON number: NaN and the infinities included (``json.dumps`` writes
#: them as ``NaN`` / ``Infinity``, which ``json.loads`` reads back), and ints
#: beyond float range.
_NUMBERS = (
    st.integers(min_value=-3, max_value=2**70)
    | st.floats()
    | st.integers(min_value=2**1024, max_value=HUGE)
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _objects_over(cls: type, value: st.SearchStrategy = _NUMBERS) -> st.SearchStrategy:
    """JSON objects over a subset of ``cls``'s field names."""
    return st.fixed_dictionaries(
        {}, optional={f.name: value | _JSON for f in dataclasses.fields(cls)}
    )


_ARRIVALS = st.builds(
    lambda kind, rest: {"kind": kind, **rest},
    st.sampled_from(["wave", "poisson", "burst", "steady"]),
    _objects_over(WaveArrivals) | _objects_over(PoissonArrivals) | _objects_over(BurstArrivals),
)
_SPEC_SECTIONS = {
    "sizes": _objects_over(JobSizeDistribution),
    "runtimes": _objects_over(RuntimeDistribution),
    "users": _objects_over(UserPopulation),
    "arrivals": _ARRIVALS,
}
_SPECS = st.fixed_dictionaries(
    {},
    optional={
        f.name: _SPEC_SECTIONS.get(f.name, _NUMBERS | st.lists(_NUMBERS, max_size=3)) | _JSON
        for f in dataclasses.fields(WorkloadSpec)
    },
)
_SEGMENTS = st.lists(
    st.tuples(_NUMBERS | st.none(), _NUMBERS | st.none()).map(list) | _JSON, max_size=3
)
_SIGNALS = st.fixed_dictionaries(
    {},
    optional={
        name: _SEGMENTS | _JSON
        for name in ("power_cap_kw", "price_per_kwh", "carbon_kg_per_kwh")
    },
)
_REQUEST_PAYLOADS = st.fixed_dictionaries(
    {},
    optional={
        "system": st.just("tiny") | _JSON,
        "policy": st.sampled_from(["fcfs", "backfill", "replay"]) | _JSON,
        "backfill": st.none() | _JSON,
        "duration_s": _NUMBERS | _JSON,
        "seed": _NUMBERS | _JSON,
        "spec": _SPECS | _JSON,
        "horizon_s": _NUMBERS | _JSON,
        "dense_ticks": st.booleans() | _JSON,
        "signals": _SIGNALS | _JSON,
        "event_index": st.just(True) | _JSON,
        "vectorized": st.just(True) | _JSON,
    },
)
#: Sweep spec files: objects over SweepSpec's keys (the duration aliases
#: included), or any other JSON value.
_SWEEP_PAYLOADS = st.fixed_dictionaries(
    {},
    optional={
        "name": st.just("s") | _JSON,
        "duration_s": _NUMBERS | _JSON,
        "duration": st.sampled_from(["1h", "90m"]) | _JSON,
        "systems": st.just(["tiny"]) | _JSON,
        "policies": st.lists(st.sampled_from(["fcfs", "backfill", "replay"]), max_size=2)
        | _JSON,
        "workloads": st.lists(st.sampled_from(sorted(WORKLOAD_VARIANTS)), max_size=2)
        | _JSON,
        "n_seeds": _NUMBERS | _JSON,
        "seeds": st.lists(_NUMBERS, max_size=2) | _JSON,
        "root_seed": _NUMBERS | _JSON,
        "horizon_s": _NUMBERS | _JSON,
        "horizon": st.just("2h") | _JSON,
        "dense_ticks": st.booleans() | _JSON,
        "power_caps": st.lists(_NUMBERS | st.none(), max_size=2) | _JSON,
        "price_per_kwh": _NUMBERS | _JSON,
        "carbon_kg_per_kwh": _NUMBERS | _JSON,
        "custom_workloads": st.dictionaries(st.text(max_size=3), _SPECS, max_size=1)
        | _JSON,
    },
) | _JSON


class TestRunRequest:
    def test_json_round_trip_defaults(self) -> None:
        request = RunRequest(system="tiny", seed=3)
        again = RunRequest.from_json(request.to_json())
        assert again == request
        assert again.run_id == request.run_id

    def test_json_round_trip_full_spec(self) -> None:
        request = RunRequest(
            system="tiny",
            policy="backfill",
            duration_s=7200.0,
            seed=11,
            spec=busy_trace_spec(),
            horizon_s=10800.0,
            dense_ticks=True,
        )
        again = RunRequest.from_json(request.to_json())
        assert again == request
        assert again.run_id == request.run_id

    def test_run_id_changes_with_content(self) -> None:
        base = RunRequest(system="tiny", seed=1)
        assert base.run_id != RunRequest(system="tiny", seed=2).run_id
        assert base.run_id != RunRequest(system="tiny", seed=1, dense_ticks=True).run_id

    def test_run_id_is_stable_across_processes(self) -> None:
        # The id is a pure content hash — no salts, no object identity —
        # so a literal pin guards against accidental canonical-form drift
        # (which would orphan every existing results store).
        assert RunRequest(system="tiny", seed=1).run_id == "42acf52c4e8c743a"
        # The canonical form still carries the retired keys at their one
        # value; stored requests with them round-trip to the same id.
        payload = RunRequest(system="tiny", seed=1).to_json_dict()
        assert payload["event_index"] is True and payload["vectorized"] is True
        assert payload["backfill"] is None
        assert RunRequest.from_json_dict(payload).run_id == "42acf52c4e8c743a"

    @pytest.mark.parametrize(
        "flag, value, match",
        [
            pytest.param("event_index", False, "event_index", id="event_index"),
            pytest.param("vectorized", False, "vectorized", id="vectorized"),
            # EASY backfill is policy "backfill"; the error says so.
            pytest.param("backfill", "easy", "backfill.*policy", id="backfill"),
        ],
    )
    def test_retired_flag_false_rejected(self, flag: str, value: object, match: str) -> None:
        payload = RunRequest(system="tiny", seed=1).to_json_dict()
        payload[flag] = value
        with pytest.raises(ConfigurationError, match=match):
            RunRequest.from_json_dict(payload)

    def test_unknown_field_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown RunRequest field"):
            RunRequest.from_json_dict({"system": "tiny", "nodes": 4})

    @pytest.mark.parametrize(
        "field, axis, name, known",
        [
            ("system", "systems", "nope-system", "known systems: .*frontier"),
            ("policy", "policies", "nope", "known: backfill, fcfs, replay"),
        ],
        ids=["system", "policy"],
    )
    def test_unregistered_names_rejected_at_construction(
        self, field: str, axis: str, name: str, known: str
    ) -> None:
        # A typo fails where it is written, listing the known names, not as
        # one failed store row per run after the pool has started.
        with pytest.raises(SRapsError, match=known):
            RunRequest(**{field: name})
        with pytest.raises(SRapsError, match=known):
            SweepSpec(name="typo", duration_s=SHORT_S, **{axis: (name,)})

    def test_validation(self) -> None:
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="duration_s"):
            RunRequest(system="tiny", duration_s=0.0)
        with pytest.raises(SimulationError, match="horizon_s"):
            RunRequest(system="tiny", horizon_s=-1.0)
        with pytest.raises(ConfigurationError, match="system"):
            RunRequest(system="")

    @pytest.mark.parametrize("field", ["duration_s", "horizon_s"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_seconds_rejected(self, field: str, value: float) -> None:
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match=field):
            RunRequest(system="tiny", **{field: value})  # type: ignore[arg-type]

    def test_non_bool_dense_ticks_rejected(self) -> None:
        # "no" is truthy: accepting it would silently run dense.
        with pytest.raises(ConfigurationError, match="dense_ticks"):
            RunRequest(system="tiny", dense_ticks="no")  # type: ignore[arg-type]

    def test_fractional_seed_rejected(self) -> None:
        # int(1.7) == 1 would give the request seed 1's run id.
        with pytest.raises(ConfigurationError, match="seed"):
            RunRequest(system="tiny", seed=1.7)  # type: ignore[arg-type]

    def test_non_numeric_seed_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="seed"):
            RunRequest(system="tiny", seed="abc")  # type: ignore[arg-type]

    def test_non_mapping_payload_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="JSON object"):
            RunRequest.from_json_dict(["tiny"])

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"policy": 3}', id="policy-int"),
            pytest.param('{"backfill": {"x": Infinity}}', id="backfill-object"),
            pytest.param('{"seed": -1}', id="negative-seed"),
            pytest.param("{", id="not-json"),
            pytest.param('{"signals": []}', id="signals-list"),
            pytest.param('{"signals": {"power_cap_kw": [[null, null]]}}', id="null-time"),
            pytest.param('{"spec": {"sample_noise": "a"}}', id="spec-string-noise"),
            pytest.param('{"spec": {"cpu_util_range": 3}}', id="spec-int-range"),
            pytest.param('{"spec": {"cpu_util_range": [1, 2, 3]}}', id="spec-3-range"),
        ],
    )
    def test_malformed_json_raises_configuration_error(self, text: str) -> None:
        with pytest.raises(ConfigurationError):
            RunRequest.from_json(text)

    @given(payload=_REQUEST_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_from_json_gives_a_run_id_or_an_srapserror(self, payload: dict) -> None:
        try:
            request = RunRequest.from_json(json.dumps(payload))
        except SRapsError:
            return
        assert len(request.run_id) == 16

    @pytest.mark.parametrize(
        "section", ["sizes", "runtimes", "users", "arrivals", None]
    )
    def test_non_object_spec_section_rejected(self, section: str | None) -> None:
        payload = RunRequest(system="tiny", spec=WorkloadSpec()).to_json_dict()
        if section is None:
            payload["spec"] = 5
        else:
            payload["spec"][section] = 5  # type: ignore[index]
        with pytest.raises(ConfigurationError, match="JSON object"):
            RunRequest.from_json_dict(payload)


class TestWorkloadSpecSerialisation:
    @pytest.mark.parametrize(
        "spec",
        [
            WorkloadSpec(),
            busy_trace_spec(),
            WorkloadSpec(arrivals=PoissonArrivals(rate_per_hour=5.0)),
            WorkloadSpec(arrivals=BurstArrivals(jobs_per_burst=10)),
        ],
        ids=["default", "busy_trace", "poisson", "burst"],
    )
    def test_round_trip(self, spec: WorkloadSpec) -> None:
        data = workload_spec_to_dict(spec)
        json.dumps(data, allow_nan=False)  # strictly JSON-serialisable
        assert workload_spec_from_dict(data) == spec

    def test_unknown_fields_rejected(self) -> None:
        data = workload_spec_to_dict(WorkloadSpec())
        data["surprise"] = 1
        with pytest.raises(ConfigurationError, match="unknown WorkloadSpec field"):
            workload_spec_from_dict(data)
        nested = workload_spec_to_dict(WorkloadSpec())
        nested["arrivals"]["kind"] = "tidal"  # type: ignore[index]
        with pytest.raises(ConfigurationError, match="unknown arrival kind"):
            workload_spec_from_dict(nested)


# ---------------------------------------------------------------------------
# Shim equivalence


class TestShimEquivalence:
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({}, id="default-policy"),
            pytest.param({"policy": "easy"}, id="easy"),
            pytest.param({"policy": "backfill", "spec": busy_trace_spec()}, id="busy-backfill"),
            pytest.param(
                {
                    "policy": "backfill",
                    "spec": busy_trace_spec(),
                    "signals": OperatingSignals.constant(
                        power_cap_kw=20.0, price_per_kwh=0.12
                    ),
                },
                id="cap-price",
            ),
            pytest.param({"policy": "fcfs", "horizon_s": 2700.0}, id="horizon"),
            pytest.param({"policy": "fcfs", "dense_ticks": True}, id="dense"),
            # Fractions of a second mean the same window on both front ends.
            pytest.param(
                {"policy": "fcfs", "duration_s": 5400.5, "horizon_s": 7000.7},
                id="fractional",
            ),
        ],
    )
    def test_run_simulation_matches_run_request(self, kwargs: dict) -> None:
        # The two front ends build a run the same way: same summary, key
        # order included, and the same policy name.
        request = RunRequest(**{"system": "tiny", "duration_s": SHORT_S, "seed": 5, **kwargs})
        via_request = run_request(request)
        via_shim = run_simulation(
            request.system,
            policy=request.policy,
            duration=request.duration_s,
            seed=request.seed,
            spec=request.spec,
            horizon=request.horizon_s,
            dense_ticks=request.dense_ticks,
            signals=request.signals,
        )
        assert list(via_shim.summary().items()) == list(via_request.summary().items())
        assert via_shim.policy == via_request.policy

    @pytest.mark.parametrize(
        "horizon", [math.nan, math.inf, 0.0, -5.0], ids=["nan", "inf", "zero", "negative"]
    )
    def test_every_front_end_rejects_a_bad_horizon(self, horizon: float) -> None:
        # A NaN or infinite horizon would run the whole workload and a
        # non-positive one dismiss it; all three front ends refuse them.
        tiny = get_system_config("tiny")
        jobs = [make_job(nodes=2, duration=7200.0)]
        with pytest.raises(SRapsError, match="horizon"):
            SimulationEngine(tiny, jobs, "fcfs", horizon_s=horizon)
        with pytest.raises(SRapsError, match="duration"):
            run_simulation("tiny", duration=SHORT_S, horizon=horizon)
        with pytest.raises(SRapsError, match="horizon_s"):
            RunRequest(system="tiny", duration_s=SHORT_S, horizon_s=horizon)


class TestBoundary:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: SweepSpec(name="b", duration_s=HUGE), id="sweep-duration"),
            pytest.param(
                lambda: SweepSpec(name="b", duration_s=SHORT_S, horizon_s=HUGE),
                id="sweep-horizon",
            ),
            pytest.param(
                lambda: SweepSpec(name="b", duration_s=SHORT_S, power_caps=(HUGE,)),
                id="sweep-cap",
            ),
            pytest.param(
                lambda: SimulationEngine(
                    get_system_config("tiny"), [make_job(nodes=2)], "fcfs", horizon_s=HUGE
                ),
                id="engine-horizon",
            ),
            pytest.param(lambda: run_simulation("tiny", duration=HUGE), id="run-duration"),
            pytest.param(
                lambda: run_simulation("tiny", duration=SHORT_S, horizon=HUGE),
                id="run-horizon",
            ),
            pytest.param(lambda: parse_duration(HUGE), id="parse-duration"),
            pytest.param(lambda: parse_duration(f"{HUGE}s"), id="parse-duration-suffixed"),
            pytest.param(lambda: parse_duration(f"{HUGE}-00:00"), id="parse-duration-clock"),
            pytest.param(
                lambda: SyntheticWorkloadGenerator(get_system_config("tiny")).generate(HUGE),
                id="generate",
            ),
            pytest.param(
                lambda: RunRequest.from_json(
                    json.dumps({"spec": {"arrivals": {"kind": "poisson", "rate_per_hour": HUGE}}})
                ),
                id="request-spec-field",
            ),
            # Past Python's int-to-str digit limit json.loads raises ValueError.
            pytest.param(
                lambda: RunRequest.from_json('{"seed": %s}' % ("1" * 5000)),
                id="request-json-long-int",
            ),
            # The results store keeps seeds in a signed 64-bit column.
            pytest.param(lambda: RunRequest(seed=2**63), id="request-seed"),
            pytest.param(
                lambda: run_simulation("tiny", duration=SHORT_S, seed=2**63), id="run-seed"
            ),
            pytest.param(
                lambda: SweepSpec(name="b", duration_s=SHORT_S, seeds=(2**63,)),
                id="sweep-seed",
            ),
            # Refused by the spec itself, not first by materialize().
            pytest.param(
                lambda: SweepSpec(name="b", duration_s=SHORT_S, seeds=(-1,)),
                id="sweep-negative-seed",
            ),
        ],
    )
    def test_out_of_range_input_is_an_srapserror(self, make) -> None:
        with pytest.raises(SRapsError):
            make()


# ---------------------------------------------------------------------------
# SweepSpec materialisation


class TestSweepSpec:
    def test_grid_size_and_determinism(self) -> None:
        spec = small_spec(workloads=("default", "busy_trace"))
        runs = spec.materialize()
        assert len(runs) == spec.total_runs == 2 * 2 * 2
        assert [run.run_index for run in runs] == list(range(8))
        again = spec.materialize()
        assert [r.run_id for r in runs] == [r.run_id for r in again]
        assert [r.request.seed for r in runs] == [r.request.seed for r in again]

    def test_spawned_seeds_are_unique_and_index_keyed(self) -> None:
        runs = small_spec(n_seeds=4).materialize()
        seeds = [run.request.seed for run in runs]
        assert len(set(seeds)) == len(seeds)
        # Dropping an axis value must not renumber surviving runs' seeds —
        # seeds come from spawn(total)[run_index], which this pin documents.
        assert seeds == [run.request.seed for run in small_spec(n_seeds=4).materialize()]

    def test_explicit_seeds_are_paired_across_grid(self) -> None:
        spec = small_spec(n_seeds=None, seeds=(10, 20))
        runs = spec.materialize()
        assert [run.request.seed for run in runs] == [10, 20, 10, 20]

    def test_duplicate_runs_rejected(self) -> None:
        # A repeated axis value or a repeated explicit seed is one request
        # twice; the message names that case.
        for spec in (
            small_spec(policies=("fcfs", "fcfs"), n_seeds=None, seeds=(1,)),
            small_spec(policies=("fcfs",), n_seeds=None, seeds=(1, 1)),
        ):
            with pytest.raises(ConfigurationError, match="duplicate run id.*repeated"):
                spec.materialize()

    @pytest.mark.parametrize(
        "policies", [(None, "replay"), ("easy", "backfill")], ids=["default", "easy"]
    )
    def test_two_spellings_of_one_policy_are_two_run_ids(self, policies) -> None:
        # Spellings are not canonicalised: that would move every stored
        # default-policy id.
        spec = small_spec(policies=policies, n_seeds=None, seeds=(1,))
        assert len({run.run_id for run in spec.materialize()}) == 2

    def test_unknown_workload_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown workload variant"):
            small_spec(workloads=("nope",))

    def test_mutually_exclusive_seed_modes(self) -> None:
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            small_spec(seeds=(1, 2))

    def test_json_round_trip_with_duration_alias(self, tmp_path: Path) -> None:
        custom = WorkloadSpec(sizes=JobSizeDistribution(max_nodes=16))
        spec = small_spec(
            workloads=("default", "mine"), custom_workloads={"mine": custom}
        )
        data = spec.to_json_dict()
        assert SweepSpec.from_json_dict(data) == spec
        # "6h"-style duration strings parse through the alias field.
        data.pop("duration_s")
        data["duration"] = "1h"
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        loaded = load_sweep_spec(path)
        assert loaded == spec
        ids_a = [run.run_id for run in spec.materialize()]
        ids_b = [run.run_id for run in loaded.materialize()]
        assert ids_a == ids_b

    @pytest.mark.parametrize(
        "axis, value", [("systems", "tiny"), ("policies", "fcfs")]
    )
    def test_string_axis_rejected(self, axis: str, value: str) -> None:
        # A bare string would split into one-letter axis values.
        data = small_spec().to_json_dict()
        data[axis] = value
        with pytest.raises(ConfigurationError, match=axis):
            SweepSpec.from_json_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dense_ticks", "no"),
            ("n_seeds", 1.5),
            ("root_seed", "abc"),
            # JSON true is not a number of seconds, kW or a rate.
            ("duration_s", True),
            ("horizon_s", True),
            ("power_caps", [True]),
            ("price_per_kwh", True),
            ("carbon_kg_per_kwh", True),
        ],
    )
    def test_mistyped_scalar_rejected(self, field: str, value: object) -> None:
        data = small_spec().to_json_dict()
        data[field] = value
        with pytest.raises(ConfigurationError, match=field):
            SweepSpec.from_json_dict(data)

    @pytest.mark.parametrize("alias", ["duration", "horizon"])
    def test_boolean_duration_alias_rejected(self, alias: str) -> None:
        data = small_spec().to_json_dict()
        del data[f"{alias}_s"]
        data[alias] = True
        with pytest.raises(ConfigurationError, match="duration"):
            SweepSpec.from_json_dict(data)

    @given(payload=_SWEEP_PAYLOADS)
    @example(payload=[["name", "x"], ["duration", "1h"]])
    @example(payload={"name": "s", "duration_s": HUGE})
    @example(payload={"name": "s", "duration_s": math.nan})
    @example(payload={"name": "s", "duration": "1h", "horizon_s": math.inf})
    @example(payload={"name": "s", "duration": "1h", "power_caps": [-math.inf]})
    @example(payload={"name": "s", "duration": "1h", "price_per_kwh": math.nan})
    @settings(max_examples=300, deadline=None)
    def test_from_json_dict_gives_run_ids_or_an_srapserror(self, payload: object) -> None:
        try:
            spec = SweepSpec.from_json_dict(payload)
        except SRapsError:
            return
        assert isinstance(payload, dict)
        # Non-finite numbers never construct: a spec that cannot run fails
        # on construction, not first in materialize().
        numbers = (
            spec.duration_s,
            spec.horizon_s,
            spec.price_per_kwh,
            spec.carbon_kg_per_kwh,
            *spec.power_caps,
        )
        assert all(math.isfinite(x) for x in numbers if x is not None), numbers
        try:
            runs = spec.materialize() if spec.total_runs <= 16 else []
        except SRapsError:
            return
        assert all(len(run.run_id) == 16 for run in runs)

    def test_workload_variants_registry_materialises(self) -> None:
        for name in WORKLOAD_VARIANTS:
            spec = SweepSpec(
                name="v", duration_s=SHORT_S, workloads=(name,), n_seeds=1
            )
            assert len(spec.materialize()) == 1


# ---------------------------------------------------------------------------
# Results store


class TestResultsStore:
    @staticmethod
    def _dummy_summary(value: float = 1.0) -> dict[str, float]:
        return {name: value for name in SUMMARY_COLUMNS}

    def _record(
        self, store: ResultsStore, run_id: str, value: float = 1.0, **overrides: object
    ) -> None:
        kwargs: dict[str, object] = dict(
            run_id=run_id,
            sweep="s",
            run_index=0,
            system="tiny",
            policy="fcfs",
            workload="default",
            seed=1,
            request_json="{}",
            summary=self._dummy_summary(value),
            wall_s=0.1,
            finished_unix_s=0.0,
        )
        kwargs.update(overrides)
        store.record_completed(**kwargs)  # type: ignore[arg-type]

    def test_wal_mode(self, tmp_path: Path) -> None:
        path = tmp_path / "wal.sqlite"
        with ResultsStore(path):
            pass
        with sqlite3.connect(path) as conn:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_upsert_is_idempotent(self, tmp_path: Path) -> None:
        with ResultsStore(tmp_path / "s.sqlite") as store:
            self._record(store, "aaaa", value=1.0)
            self._record(store, "aaaa", value=2.0)
            rows = store.runs()
            assert len(rows) == 1
            assert rows[0].summary is not None
            assert rows[0].summary["total_energy_kwh"] > 1.5

    def test_failed_then_completed_replaces_row(self, tmp_path: Path) -> None:
        with ResultsStore(tmp_path / "s.sqlite") as store:
            store.record_failed(
                run_id="aaaa",
                sweep="s",
                run_index=0,
                system="tiny",
                policy=None,
                workload="default",
                seed=1,
                request_json="{}",
                error="boom",
                wall_s=None,
                finished_unix_s=0.0,
            )
            assert store.known_run_ids(status="completed") == set()
            assert store.known_run_ids(status="failed") == {"aaaa"}
            self._record(store, "aaaa")
            assert store.known_run_ids(status="completed") == {"aaaa"}
            assert store.count_by_status() == {"completed": 1}

    def test_missing_metric_rejected(self, tmp_path: Path) -> None:
        with ResultsStore(tmp_path / "s.sqlite") as store:
            summary = self._dummy_summary()
            summary.pop("mean_pue")
            with pytest.raises(ConfigurationError, match="missing metric"):
                self._record(store, "aaaa", summary=summary)

    def test_infinite_pue_survives_storage(self, tmp_path: Path) -> None:
        summary = self._dummy_summary()
        summary["mean_pue"] = math.inf
        summary["max_pue"] = math.inf
        with ResultsStore(tmp_path / "s.sqlite") as store:
            self._record(store, "aaaa", summary=summary)
            stored = store.runs()[0]
            assert stored.summary is not None
            assert math.isinf(stored.summary["mean_pue"])

    def test_query_filters_order_and_limit(self, tmp_path: Path) -> None:
        with ResultsStore(tmp_path / "s.sqlite") as store:
            self._record(store, "a1", value=3.0, policy="fcfs", run_index=0)
            self._record(store, "a2", value=1.0, policy="backfill", run_index=1)
            self._record(store, "a3", value=2.0, policy="fcfs", run_index=2, seed=9)
            assert {r.run_id for r in store.runs(policy="fcfs")} == {"a1", "a3"}
            assert [r.run_id for r in store.runs(seed=9)] == ["a3"]
            top = store.runs(order_by="total_energy_kwh", descending=True, limit=2)
            assert [r.run_id for r in top] == ["a1", "a3"]

    def test_order_by_whitelist(self, tmp_path: Path) -> None:
        with ResultsStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(ConfigurationError, match="cannot order by"):
                store.runs(order_by="run_id; DROP TABLE runs")

    def test_csv_export(self, tmp_path: Path) -> None:
        summary = self._dummy_summary()
        summary["max_pue"] = math.inf
        with ResultsStore(tmp_path / "s.sqlite") as store:
            self._record(store, "a1", summary=summary)
            out = tmp_path / "out.csv"
            assert store.to_csv(out) == 1
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["run_id", "sweep", "run_index"]
        assert "inf" in lines[1].split(",")


# ---------------------------------------------------------------------------
# Driver end-to-end


def assert_store_matches_fresh_runs(store_path: Path) -> int:
    """Every stored summary equals a fresh in-process run at 1e-9."""
    checked = 0
    with ResultsStore(store_path) as store:
        for run in store.runs(status="completed"):
            request = RunRequest.from_json(run.request_json)
            fresh = run_request(request).summary()
            assert run.summary is not None
            assert set(run.summary) == set(fresh)
            for key, value in fresh.items():
                stored = run.summary[key]
                if math.isfinite(value):
                    assert stored == pytest.approx(value, abs=1e-9), key
                else:
                    assert stored == value, key
            checked += 1
    return checked


class TestDriver:
    def test_parallel_sweep_matches_direct_runs(self, tmp_path: Path) -> None:
        spec = small_spec("par")
        path = tmp_path / "par.sqlite"
        outcome = run_sweep(
            spec, path, workers=2, chunk_size=2, heartbeat_interval_s=None
        )
        assert outcome.total == outcome.completed == 4
        assert outcome.failed == 0
        assert outcome.runs_per_s > 0
        assert assert_store_matches_fresh_runs(path) == 4

    @staticmethod
    def _assert_serial_and_parallel_identical(
        tmp_path: Path, spec: SweepSpec, workers: int, chunk_size: int
    ) -> None:
        """Every run completes on one worker and on a pool, the two stores
        are equal, and four stored rows re-run through the public
        ``run_simulation`` within 1e-9."""
        serial = tmp_path / "serial.sqlite"
        pooled = tmp_path / "pooled.sqlite"
        outcomes = (
            run_sweep(spec, serial, workers=1, heartbeat_interval_s=None),
            run_sweep(
                spec, pooled, workers=workers, chunk_size=chunk_size,
                heartbeat_interval_s=None,
            ),
        )
        for outcome in outcomes:
            assert (outcome.completed, outcome.failed) == (spec.total_runs, 0)
        with ResultsStore(serial) as a, ResultsStore(pooled) as b:
            rows = a.runs()
            rows_b = {r.run_id: r.summary for r in b.runs()}
        assert {r.run_id: r.summary for r in rows} == rows_b
        for row in rows[:: max(1, len(rows) // 4)][:4]:
            request = RunRequest.from_json(row.request_json)
            fresh = run_simulation(
                system=request.system,
                policy=request.policy,
                duration=request.duration_s,
                seed=request.seed,
                spec=request.spec,
                dense_ticks=request.dense_ticks,
            ).summary()
            assert row.summary is not None
            assert max(summary_drifts(fresh, row.summary).values()) <= 1e-9

    def test_serial_and_parallel_stores_are_identical(self, tmp_path: Path) -> None:
        self._assert_serial_and_parallel_identical(tmp_path, small_spec("both"), 2, 1)

    def test_serial_and_parallel_stores_are_identical_on_64_runs(
        self, tmp_path: Path
    ) -> None:
        # The sweep gate: 2 policies x 2 workloads x 16 seeds of 12 h, on
        # one worker and on four with chunks of four.
        spec = small_spec(
            "grid",
            duration_s=12 * 3600.0,
            workloads=("default", "busy_trace"),
            n_seeds=16,
            root_seed=42,
        )
        assert spec.total_runs == 64
        self._assert_serial_and_parallel_identical(tmp_path, spec, 4, 4)

    def test_shuffled_execution_identical_results(self, tmp_path: Path) -> None:
        spec = small_spec("shuf")
        plain = tmp_path / "plain.sqlite"
        shuffled = tmp_path / "shuffled.sqlite"
        run_sweep(spec, plain, workers=1, heartbeat_interval_s=None)
        run_sweep(
            spec, shuffled, workers=1, shuffle_seed=123, heartbeat_interval_s=None
        )
        with ResultsStore(plain) as a, ResultsStore(shuffled) as b:
            assert {r.run_id: r.summary for r in a.runs()} == {
                r.run_id: r.summary for r in b.runs()
            }

    def test_worker_failure_is_recorded_not_fatal(self, tmp_path: Path) -> None:
        # max job size 128 > tiny's 32 nodes: the workload generator raises
        # inside the worker; the run must land as a failed row with its
        # traceback while the default-workload runs complete normally.
        bad = WorkloadSpec(sizes=JobSizeDistribution(min_nodes=64, max_nodes=128))
        spec = SweepSpec(
            name="mix",
            duration_s=SHORT_S,
            workloads=("default", "toobig"),
            n_seeds=1,
            custom_workloads={"toobig": bad},
        )
        path = tmp_path / "mix.sqlite"
        outcome = run_sweep(
            spec, path, workers=2, chunk_size=1, heartbeat_interval_s=None
        )
        assert outcome.completed == 1
        assert outcome.failed == 1
        with ResultsStore(path) as store:
            failed = store.runs(status="failed")
            assert len(failed) == 1
            assert failed[0].workload == "toobig"
            assert failed[0].error is not None
            assert "exceeds system size" in failed[0].error
            assert failed[0].summary is None

    def test_failed_runs_are_retried_on_resume(self, tmp_path: Path) -> None:
        bad = WorkloadSpec(sizes=JobSizeDistribution(min_nodes=64, max_nodes=128))
        spec = SweepSpec(
            name="retry",
            duration_s=SHORT_S,
            workloads=("toobig",),
            n_seeds=1,
            custom_workloads={"toobig": bad},
        )
        path = tmp_path / "retry.sqlite"
        run_sweep(spec, path, workers=1, heartbeat_interval_s=None)
        again = run_sweep(spec, path, workers=1, heartbeat_interval_s=None)
        assert again.skipped == 0  # failed rows stay eligible
        assert again.failed == 1
        with ResultsStore(path) as store:
            assert store.count_by_status() == {"failed": 1}

    def test_resume_after_kill(self, tmp_path: Path) -> None:
        spec = small_spec("kill", n_seeds=3)  # 6 runs
        path = tmp_path / "kill.sqlite"
        killed = run_sweep(
            spec,
            path,
            workers=2,
            chunk_size=2,
            stop_after_runs=2,
            heartbeat_interval_s=None,
        )
        assert killed.stopped_early
        assert killed.executed == 2
        with ResultsStore(path) as store:
            after_kill = store.count_by_status().get("completed", 0)
        assert after_kill == 2

        finished = run_sweep(
            spec, path, workers=2, chunk_size=2, heartbeat_interval_s=None
        )
        assert not finished.stopped_early
        assert finished.skipped == 2
        assert finished.completed == spec.total_runs - 2
        with ResultsStore(path) as store:
            rows = store.runs()
            assert len(rows) == spec.total_runs  # no duplicates
            assert {r.run_id for r in rows} == {
                run.run_id for run in spec.materialize()
            }
        assert assert_store_matches_fresh_runs(path) == spec.total_runs

        # A third pass is a no-op.
        idle = run_sweep(spec, path, workers=2, heartbeat_interval_s=None)
        assert idle.skipped == spec.total_runs
        assert idle.executed == 0

    def test_no_resume_re_executes(self, tmp_path: Path) -> None:
        spec = small_spec("redo", policies=("fcfs",), n_seeds=1)
        path = tmp_path / "redo.sqlite"
        run_sweep(spec, path, workers=1, heartbeat_interval_s=None)
        again = run_sweep(
            spec, path, workers=1, resume=False, heartbeat_interval_s=None
        )
        assert again.skipped == 0
        assert again.completed == 1
        with ResultsStore(path) as store:
            assert len(store.runs()) == 1

    def test_heartbeat_stream(self, tmp_path: Path) -> None:
        import io

        stream = io.StringIO()
        spec = small_spec("beat", policies=("fcfs",), n_seeds=2)
        run_sweep(
            spec,
            tmp_path / "beat.sqlite",
            workers=1,
            heartbeat_interval_s=0.0,
            stream=stream,
        )
        lines = stream.getvalue().strip().splitlines()
        assert lines
        assert all(line.startswith("[sweep beat]") for line in lines)
        assert "2/2 done" in lines[-1]

    def test_driver_validation(self, tmp_path: Path) -> None:
        spec = small_spec("bad")
        with pytest.raises(ConfigurationError, match="workers"):
            run_sweep(spec, tmp_path / "x.sqlite", workers=0)
        with pytest.raises(ConfigurationError, match="chunk_size"):
            run_sweep(spec, tmp_path / "x.sqlite", chunk_size=0)


# ---------------------------------------------------------------------------
# CLI


class TestSweepCli:
    def _write_spec(self, tmp_path: Path) -> Path:
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli",
                    "duration": "1h",
                    "policies": ["fcfs", "backfill"],
                    "n_seeds": 1,
                    "root_seed": 3,
                }
            )
        )
        return path

    def test_run_status_query_csv(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        from repro.sweep.cli import main

        spec_path = self._write_spec(tmp_path)
        store_path = tmp_path / "cli.sqlite"
        assert (
            main(
                [
                    "run",
                    str(spec_path),
                    "--store",
                    str(store_path),
                    "--workers",
                    "1",
                    "--heartbeat",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 completed" in out

        assert main(["status", str(store_path)]) == 0
        assert "2 completed, 0 failed" in capsys.readouterr().out

        assert (
            main(
                [
                    "query",
                    str(store_path),
                    "--order-by",
                    "total_energy_kwh",
                    "--descending",
                    "--limit",
                    "1",
                ]
            )
            == 0
        )
        table = capsys.readouterr().out.strip().splitlines()
        assert table[0].startswith("run_id")
        assert len(table) == 2

        csv_path = tmp_path / "out.csv"
        assert main(["query", str(store_path), "--csv", str(csv_path)]) == 0
        assert len(csv_path.read_text().strip().splitlines()) == 3

    def test_resume_via_cli(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        from repro.sweep.cli import main

        spec_path = self._write_spec(tmp_path)
        store_path = tmp_path / "cli.sqlite"
        args = [
            "run",
            str(spec_path),
            "--store",
            str(store_path),
            "--workers",
            "1",
            "--heartbeat",
            "0",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "(2 resumed, 0 completed" in capsys.readouterr().out

    def test_example_round_trips(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        from repro.sweep.cli import main

        out_path = tmp_path / "example.json"
        assert main(["example", "--out", str(out_path)]) == 0
        spec = load_sweep_spec(out_path)
        assert spec.total_runs >= 8
        capsys.readouterr()
        assert main(["example"]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == spec.name

    def test_bad_spec_is_an_error_not_a_traceback(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        from repro.sweep.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "duration": "1h", "bogus": 1}))
        assert main(["run", str(path), "--store", str(tmp_path / "s.sqlite")]) == 1
        assert "unknown sweep spec field" in capsys.readouterr().err

    def test_unknown_metric_column(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        from repro.sweep.cli import main
        from repro.sweep.store import ResultsStore as Store

        store_path = tmp_path / "s.sqlite"
        with Store(store_path):
            pass
        assert main(["query", str(store_path), "--metrics", "bogus_kwh"]) == 2
        assert "unknown metric column" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Operating-signals axis (power caps / price / carbon)


class TestSignalsInRequests:
    def test_signals_round_trip(self) -> None:
        request = RunRequest(
            system="tiny",
            seed=3,
            signals=OperatingSignals(
                power_cap_kw=((0.0, None), (1800.0, 12.0), (3600.0, None)),
                price_per_kwh=((0.0, 0.12),),
            ),
        )
        again = RunRequest.from_json(request.to_json())
        assert again == request
        assert again.run_id == request.run_id

    def test_absent_signals_leave_json_unchanged(self) -> None:
        # Serialise-by-omission: a request without signals must hash to the
        # id it always had, or every historical store would be orphaned.
        payload = json.loads(RunRequest(system="tiny", seed=3).to_json())
        assert "signals" not in payload

    def test_signals_change_the_run_id(self) -> None:
        base = RunRequest(system="tiny", seed=3)
        capped = RunRequest(
            system="tiny",
            seed=3,
            signals=OperatingSignals.constant(power_cap_kw=12.0),
        )
        assert base.run_id != capped.run_id


class TestSweepSpecCapAxis:
    def test_cap_axis_multiplies_the_grid(self) -> None:
        spec = small_spec(power_caps=(None, 12.0))
        runs = spec.materialize()
        assert len(runs) == spec.total_runs == 2 * 2 * 2
        capped = [r for r in runs if r.request.signals is not None]
        uncapped = [r for r in runs if r.request.signals is None]
        assert len(capped) == len(uncapped) == 4
        for run in capped:
            assert run.request.signals.cap_at(0.0) == 12.0

    def test_default_axis_preserves_run_ids(self) -> None:
        # power_caps=(None,) is the default: a spec that never mentions the
        # axis and one that spells out the default must produce byte-identical
        # run ids, or the new field would orphan every historical store.
        # (Adding a cap *value* renumbers seeds — they are keyed by run
        # index across the whole grid, as pinned elsewhere in this module.)
        plain = small_spec().materialize()
        explicit = small_spec(power_caps=(None,)).materialize()
        assert [r.run_id for r in plain] == [r.run_id for r in explicit]
        assert all(r.request.signals is None for r in explicit)

    def test_scalar_price_and_carbon_build_signals(self) -> None:
        spec = small_spec(price_per_kwh=0.12, carbon_kg_per_kwh=0.35)
        runs = spec.materialize()
        for run in runs:
            assert run.request.signals is not None
            assert run.request.signals.price_at(0.0) == 0.12
            assert run.request.signals.carbon_at(0.0) == 0.35
            assert not run.request.signals.has_cap

    def test_json_round_trip_with_cap_axis(self) -> None:
        spec = small_spec(power_caps=(None, 12.0), price_per_kwh=0.12)
        data = spec.to_json_dict()
        json.dumps(data, allow_nan=False)
        assert SweepSpec.from_json_dict(data) == spec

    def test_invalid_caps_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="power_caps"):
            small_spec(power_caps=())
        with pytest.raises(ConfigurationError, match="positive kW or null"):
            small_spec(power_caps=(0.0,))
        with pytest.raises(ConfigurationError, match="price_per_kwh"):
            small_spec(price_per_kwh=-0.1)

    def test_cap_sweep_end_to_end_query_by_cost(self, tmp_path: Path) -> None:
        spec = small_spec(
            "caps",
            policies=("fcfs",),
            n_seeds=1,
            power_caps=(None, 12.0),
            price_per_kwh=0.12,
        )
        path = tmp_path / "caps.sqlite"
        outcome = run_sweep(spec, path, workers=1, heartbeat_interval_s=None)
        assert outcome.completed == 2
        with ResultsStore(path) as store:
            rows = store.runs(order_by="energy_cost")
            assert len(rows) == 2
            costs = [r.summary["energy_cost"] for r in rows if r.summary]
            assert costs == sorted(costs)
            assert all(cost > 0.0 for cost in costs)
            # The capped run burns less energy, hence costs less.
            assert rows[0].summary is not None
            assert rows[0].summary["cap_violation_kwh"] == 0.0
        assert assert_store_matches_fresh_runs(path) == 2


class TestStoreMigration:
    def test_old_schema_store_gains_columns_on_open(self, tmp_path: Path) -> None:
        """Opening a pre-signals store adds the new REAL columns in place;
        old rows read back NaN for them and new rows record normally."""
        new_columns = (
            "mean_cpu_util",
            "mean_gpu_util",
            "energy_cost",
            "carbon_kg",
            "cap_violation_kwh",
            "capped_hold_s",
        )
        path = tmp_path / "old.sqlite"
        with ResultsStore(path) as store:
            TestResultsStore()._record(store, "old1", value=2.0)
        # Rewind the schema to the pre-migration layout (DROP COLUMN needs
        # sqlite >= 3.35, which the test environment guarantees).
        assert sqlite3.sqlite_version_info >= (3, 35)
        with sqlite3.connect(path) as conn:
            for name in new_columns:
                conn.execute(f"ALTER TABLE runs DROP COLUMN {name}")
        with sqlite3.connect(path) as conn:
            names = {row[1] for row in conn.execute("PRAGMA table_info(runs)")}
        assert not names & set(new_columns)

        with ResultsStore(path) as store:
            old = store.runs()[0]
            assert old.summary is not None
            assert old.summary["total_energy_kwh"] == 2.0
            for name in new_columns:
                assert math.isnan(old.summary[name])
            TestResultsStore()._record(store, "new1", value=3.0, run_index=1)
            by_id = {r.run_id: r for r in store.runs()}
            assert by_id["new1"].summary is not None
            assert by_id["new1"].summary["energy_cost"] == 3.0


# ---------------------------------------------------------------------------
# Driver regressions: lost final outcome, interrupt safety


def _identity(obj: object) -> object:
    return obj


class _EmbargoQueue:
    """Parent-side queue wrapper that keeps each ``_RunOutcome`` in flight.

    Regression driver for the lost-final-outcome bug: results delivered by a
    worker are withheld from the parent's ``get`` for ``embargo_s`` after
    arrival, and ``empty()`` lies (always ``True``) the way a cross-process
    ``Queue.empty()`` legitimately may. An ingest loop that terminates on
    "all futures done and the queue looks empty" drops the last outcome;
    the accounting loop must keep draining until every run has reported.
    """

    def __init__(self, proxy: object, embargo_s: float = 0.4) -> None:
        self._proxy = proxy
        self._embargo_s = embargo_s
        self._held: object | None = None
        self._release_at = 0.0

    def __reduce__(self):  # workers unpickle straight to the raw proxy
        return (_identity, (self._proxy,))

    def empty(self) -> bool:
        return True

    def _maybe_release(self) -> object | None:
        import time as time_module

        if self._held is not None and time_module.monotonic() >= self._release_at:
            message, self._held = self._held, None
            return message
        return None

    def get(self, timeout: float | None = None) -> object:
        import queue as queue_module
        import time as time_module

        from repro.sweep.driver import _RunOutcome

        released = self._maybe_release()
        if released is not None:
            return released
        message = self._proxy.get(timeout=timeout)  # type: ignore[attr-defined]
        if isinstance(message, _RunOutcome) and self._held is None:
            self._held = message
            self._release_at = time_module.monotonic() + self._embargo_s
            raise queue_module.Empty
        return message

    def get_nowait(self) -> object:
        import queue as queue_module

        released = self._maybe_release()
        if released is not None:
            return released
        if self._held is not None:  # salvage must not lose the embargoed one
            message, self._held = self._held, None
            return message
        message = self._proxy.get_nowait()  # type: ignore[attr-defined]
        return message


class TestDriverRegressions:
    def test_final_outcome_in_flight_is_not_lost(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Every run's outcome lands in the store even when delivery lags
        future completion (the ``Queue.empty()``-peeking bug)."""
        from repro.sweep import driver

        real_results_queue = driver._results_queue
        monkeypatch.setattr(
            driver,
            "_results_queue",
            lambda manager: _EmbargoQueue(real_results_queue(manager)),
        )
        spec = small_spec("lag", policies=("fcfs",), n_seeds=2)
        path = tmp_path / "lag.sqlite"
        outcome = run_sweep(
            spec, path, workers=2, chunk_size=1, heartbeat_interval_s=None
        )
        assert outcome.completed == 2
        assert outcome.failed == 0
        with ResultsStore(path) as store:
            assert store.count_by_status() == {"completed": 2}

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched run_request reaches pool workers only through fork",
    )
    @pytest.mark.parametrize("dies_before_submission_ends", [False, True])
    def test_dead_worker_fails_its_chunk_and_resume_completes(
        self,
        tmp_path: Path,
        monkeypatch: pytest.MonkeyPatch,
        dies_before_submission_ends: bool,
    ) -> None:
        """A worker process that dies mid-run breaks the pool: every run of
        a chunk that never reported is recorded failed, the sweep returns,
        and a resume completes every run.

        The worker may die while the driver is still submitting chunks;
        the second case forces that by letting each chunk finish before
        the next is submitted.
        """
        from concurrent.futures import ProcessPoolExecutor, wait

        from repro.sweep import driver

        spec = small_spec("dead")  # 4 runs
        doomed_id = spec.materialize()[0].run_id
        real_run_request = driver.run_request

        def dying_run_request(request, obs=None):  # type: ignore[no-untyped-def]
            if request.run_id == doomed_id:
                os._exit(3)
            return real_run_request(request, obs=obs)

        class OneChunkAtATime(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):  # type: ignore[no-untyped-def]
                future = super().submit(fn, *args, **kwargs)
                wait([future], timeout=60)
                return future

        monkeypatch.setattr(driver, "run_request", dying_run_request)
        if dies_before_submission_ends:
            monkeypatch.setattr(driver, "ProcessPoolExecutor", OneChunkAtATime)
        path = tmp_path / "dead.sqlite"
        outcome = run_sweep(
            spec, path, workers=2, chunk_size=1, heartbeat_interval_s=None
        )
        assert outcome.completed + outcome.failed == outcome.total == spec.total_runs
        with ResultsStore(path) as store:
            doomed = [row for row in store.runs() if row.run_id == doomed_id]
        assert [row.status for row in doomed] == ["failed"]
        assert "chunk task died before the run reported" in (doomed[0].error or "")

        monkeypatch.undo()
        resumed = run_sweep(spec, path, workers=2, heartbeat_interval_s=None)
        assert (resumed.completed, resumed.failed) == (outcome.failed, 0)
        with ResultsStore(path) as store:
            assert store.count_by_status() == {"completed": spec.total_runs}

    def test_interrupt_salvages_and_resumes(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Ctrl-C mid-ingest: recorded rows stay durable, queued outcomes
        are salvaged, the pool dies, and re-running finishes the sweep."""
        import io

        from repro.sweep import driver

        real_record = driver._record_outcome
        calls = {"n": 0}

        def interrupting_record(store, run, outcome):  # type: ignore[no-untyped-def]
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            real_record(store, run, outcome)

        monkeypatch.setattr(driver, "_record_outcome", interrupting_record)
        spec = small_spec("intr", n_seeds=2)  # 4 runs
        path = tmp_path / "intr.sqlite"
        stream = io.StringIO()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                spec,
                path,
                workers=2,
                chunk_size=2,
                heartbeat_interval_s=3600.0,
                stream=stream,
            )
        assert "re-run the same sweep to resume" in stream.getvalue()

        # The kill footprint: only fully-recorded completed rows, each one
        # identical to a fresh in-process run. The interrupted outcome
        # itself was dropped mid-record and stays pending.
        with ResultsStore(path) as store:
            counts = store.count_by_status()
        recorded = counts.get("completed", 0)
        assert 1 <= recorded < spec.total_runs
        assert assert_store_matches_fresh_runs(path) == recorded

        monkeypatch.setattr(driver, "_record_outcome", real_record)
        finished = run_sweep(spec, path, workers=2, heartbeat_interval_s=None)
        assert finished.skipped == recorded
        assert finished.completed == spec.total_runs - recorded
        with ResultsStore(path) as store:
            rows = store.runs()
            assert len(rows) == spec.total_runs
            assert {r.run_id for r in rows} == {
                run.run_id for run in spec.materialize()
            }
        assert assert_store_matches_fresh_runs(path) == spec.total_runs

    def test_cli_reports_interrupt_as_exit_130(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
    ) -> None:
        from repro.sweep import cli

        def interrupted_run(args):  # type: ignore[no-untyped-def]
            raise KeyboardInterrupt

        monkeypatch.setitem(cli.__dict__, "_cmd_run", interrupted_run)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"name": "x", "duration": "1h", "n_seeds": 1})
        )
        code = cli.main(
            ["run", str(spec_path), "--store", str(tmp_path / "s.sqlite")]
        )
        assert code == 130
        assert "re-run the same command to resume" in capsys.readouterr().err
