"""Tests for Standard Workload Format reading and writing."""

from __future__ import annotations

import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.exceptions import DataLoaderError, SRapsError
from repro.telemetry import Job, jobs_to_swf, parse_swf, read_swf, write_swf

from helpers import make_job

SAMPLE_SWF = """\
; Header comment
; MaxProcs: 128
1 0 10 3600 16 -1 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1
2 100 0 1800 32 -1 -1 32 3600 -1 1 4 5 -1 2 -1 -1 -1
3 200 50 -1 8 -1 -1 8 3600 -1 0 5 6 -1 1 -1 -1 -1
"""

#: One SWF field: a plausible count or time, the -1 "missing" marker,
#: a non-finite or huge literal, or garbled text.
_SWF_FIELDS = (
    st.integers(min_value=-2, max_value=10**6).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "9" * 400])
    | st.text(alphabet="0123456789.eE+-x", min_size=1, max_size=6)
)


def _garbled(edits: list[tuple[int, str]], extra: list[str]) -> str:
    """The first sample record with some fields replaced and some appended."""
    fields = SAMPLE_SWF.splitlines()[2].split()
    for index, value in edits:
        fields[index] = value
    return " ".join(fields + extra)


#: A garbled record, a short line, or a comment.
_SWF_LINES = (
    st.builds(
        _garbled,
        st.lists(st.tuples(st.integers(0, 17), _SWF_FIELDS), max_size=3),
        st.lists(_SWF_FIELDS, max_size=2),
    )
    | st.lists(_SWF_FIELDS, max_size=17).map(" ".join)
    | st.just("; comment")
)


class TestParseSwf:
    def test_parses_valid_jobs(self):
        jobs = parse_swf(SAMPLE_SWF)
        # Job 3 has run_time == -1 (never ran) and is skipped.
        assert len(jobs) == 2

    def test_fields_mapped(self):
        job = parse_swf(SAMPLE_SWF)[0]
        assert job.submit_time == 0
        assert job.start_time == 10
        assert job.end_time == 10 + 3600
        assert job.nodes_required == 16
        assert job.wall_time_limit == 7200
        assert job.user == "user3"
        assert job.account == "group5"

    def test_processors_per_node_ceil(self):
        jobs = parse_swf(SAMPLE_SWF, processors_per_node=10)
        assert jobs[0].nodes_required == 2  # ceil(16/10)

    def test_comments_and_blank_lines_ignored(self):
        assert parse_swf("; only comments\n\n") == []

    def test_truncated_line_rejected(self):
        with pytest.raises(DataLoaderError):
            parse_swf("1 0 10 3600 16\n")

    def test_swf_metadata_preserved(self):
        job = parse_swf(SAMPLE_SWF)[0]
        assert job.metadata["swf"]["queue_number"] == 1


class TestRoundTrip:
    def test_export_then_parse(self):
        original = [
            make_job(nodes=4, submit=0, start=50, duration=600, user="user007", account="acct003"),
            make_job(nodes=2, submit=100, start=150, duration=1200, wall_limit=3600),
        ]
        text = jobs_to_swf(original)
        parsed = parse_swf(text)
        assert len(parsed) == len(original)
        assert [j.nodes_required for j in parsed] == [4, 2]
        assert parsed[0].submit_time == 0
        assert parsed[0].duration == pytest.approx(600, abs=1)
        assert parsed[1].wall_time_limit == pytest.approx(3600)

    def test_export_sorted_by_submit(self):
        jobs = [
            make_job(submit=500, start=500),
            make_job(submit=0, start=10),
        ]
        parsed = parse_swf(jobs_to_swf(jobs))
        assert parsed[0].submit_time <= parsed[1].submit_time

    def test_file_roundtrip(self, tmp_path):
        jobs = [make_job(nodes=8, submit=0, start=10, duration=300)]
        path = tmp_path / "workload.swf"
        write_swf(jobs, path)
        loaded = read_swf(path)
        assert len(loaded) == 1
        assert loaded[0].nodes_required == 8

    def test_header_contains_maxprocs(self):
        text = jobs_to_swf([make_job(nodes=64)])
        assert "MaxProcs: 64" in text

    def test_names_without_digits_export_the_same_in_every_process(self):
        # hash() of a str is salted per process; the export must not be.
        script = (
            "from repro.telemetry import Job, jobs_to_swf\n"
            "job = Job(nodes_required=2, submit_time=0.0, start_time=5.0,\n"
            "          end_time=65.0, user='alice', account='physics')\n"
            "print(jobs_to_swf([job]), end='')\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        exports = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
            exports.append(completed.stdout)
        assert exports[0] == exports[1]
        fields = exports[0].splitlines()[-1].split()
        assert int(fields[11]) == zlib.crc32(b"alice") % 100_000
        assert int(fields[12]) == zlib.crc32(b"physics") % 100_000


class TestMalformedLines:
    def test_non_numeric_field_names_the_line(self):
        text = SAMPLE_SWF + "4 0 xx 3600 16 -1 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1\n"
        with pytest.raises(DataLoaderError, match="line 6"):
            parse_swf(text)

    def test_truncated_line_names_the_line_and_count(self):
        with pytest.raises(DataLoaderError, match="line 2.*expected 18 fields, got 5"):
            parse_swf("; header\n1 0 10 3600 16\n")

    def test_extra_trailing_fields_tolerated(self):
        # Some archive files append site-specific columns; the standard 18
        # are parsed and the extras ignored.
        line = "1 0 10 3600 16 -1 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1 999 888\n"
        jobs = parse_swf(line)
        assert len(jobs) == 1
        assert jobs[0].nodes_required == 16

    def test_missing_wait_time_clamped(self):
        line = "1 100 -1 3600 8 -1 -1 8 -1 -1 1 3 5 -1 1 -1 -1 -1\n"
        job = parse_swf(line)[0]
        assert job.start_time == job.submit_time == 100.0
        # requested_time of -1 means no wall limit at all.
        assert job.wall_time_limit is None

    def test_missing_user_and_group_become_unknown(self):
        line = "1 0 10 3600 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        job = parse_swf(line)[0]
        assert job.user == "unknown"
        assert job.account == "unknown"
        assert job.priority == 0.0

    def test_infinite_run_time_names_the_line(self):
        # Would otherwise make a job that never ends.
        text = SAMPLE_SWF + "4 0 10 inf 16 -1 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1\n"
        with pytest.raises(DataLoaderError, match="line 6.*run_time"):
            parse_swf(text)

    def test_nan_submit_time_names_the_line(self):
        # Would otherwise make a job whose every time is NaN.
        text = SAMPLE_SWF + "4 nan 10 3600 16 -1 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1\n"
        with pytest.raises(DataLoaderError, match="line 6.*submit_time"):
            parse_swf(text)

    @given(
        lines=st.lists(_SWF_LINES, min_size=1, max_size=4),
        ppn=st.integers(min_value=-1, max_value=64),
    )
    @settings(max_examples=300, deadline=None)
    def test_parse_gives_jobs_or_an_srapserror(self, lines, ppn):
        try:
            jobs = parse_swf("\n".join(lines), processors_per_node=ppn)
        except SRapsError:
            return
        assert all(isinstance(job, Job) for job in jobs)

    def test_infinite_processors_names_the_line(self):
        # Used to escape as a bare ValueError from int(nan).
        text = SAMPLE_SWF + "4 0 10 3600 inf -1 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1\n"
        with pytest.raises(DataLoaderError, match="line 6.*allocated_processors"):
            parse_swf(text)


class TestProcessorsPerNode:
    def test_exact_division(self):
        jobs = parse_swf(SAMPLE_SWF, processors_per_node=16)
        assert jobs[0].nodes_required == 1  # 16 procs / 16 per node
        assert jobs[1].nodes_required == 2  # 32 procs / 16 per node

    def test_fewer_procs_than_node_rounds_up_to_one(self):
        jobs = parse_swf(SAMPLE_SWF, processors_per_node=1000)
        assert all(j.nodes_required == 1 for j in jobs)

    @pytest.mark.parametrize("ppn", [0, -4])
    def test_non_positive_rejected(self, ppn):
        with pytest.raises(DataLoaderError, match="processors_per_node"):
            parse_swf(SAMPLE_SWF, processors_per_node=ppn)

    def test_allocated_procs_fall_back_to_requested(self):
        # allocated_processors == -1: the requested count is used instead.
        line = "1 0 10 3600 -1 -1 -1 24 -1 -1 1 3 5 -1 1 -1 -1 -1\n"
        job = parse_swf(line, processors_per_node=8)[0]
        assert job.nodes_required == 3

    def test_job_without_any_processor_count_skipped(self):
        line = "1 0 10 3600 -1 -1 -1 -1 -1 -1 1 3 5 -1 1 -1 -1 -1\n"
        assert parse_swf(line) == []


class TestFullRoundTripIdentity:
    """parse_swf -> jobs_to_swf -> parse_swf is the identity on SWF fields.

    SWF stores integral seconds, so starting from a parsed SWF (rather than
    arbitrary float-timed jobs) the second parse must reproduce the first
    exactly — the CLI replay path depends on this to re-export workloads
    without drift.
    """

    def _roundtrip(self, text, **kwargs):
        first = parse_swf(text, **kwargs)
        second = parse_swf(jobs_to_swf(first, **kwargs), **kwargs)
        return first, second

    @pytest.mark.parametrize("ppn", [1, 4])
    def test_identity_on_scheduling_fields(self, ppn):
        first, second = self._roundtrip(SAMPLE_SWF, processors_per_node=ppn)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.submit_time == b.submit_time
            assert a.start_time == b.start_time
            assert a.end_time == b.end_time
            assert a.duration == b.duration
            assert a.nodes_required == b.nodes_required
            assert a.wall_time_limit == b.wall_time_limit
            assert a.user == b.user
            assert a.account == b.account
            assert a.priority == b.priority

    def test_identity_is_stable_under_iteration(self):
        # A second round-trip changes nothing further (idempotence).
        first, second = self._roundtrip(SAMPLE_SWF)
        third = parse_swf(jobs_to_swf(second))
        for b, c in zip(second, third):
            assert (b.submit_time, b.start_time, b.end_time, b.nodes_required) == (
                c.submit_time, c.start_time, c.end_time, c.nodes_required
            )

    def test_zero_wait_and_zero_priority_preserved(self):
        line = "1 50 0 600 4 -1 -1 4 1200 -1 1 2 2 -1 0 -1 -1 -1\n"
        first, second = self._roundtrip(line)
        assert second[0].submit_time == 50.0
        assert second[0].start_time == 50.0
        # queue_number 0 exports as missing (-1) and parses back to the
        # 0.0 default — the one lossy corner, pinned here on purpose.
        assert first[0].priority == 0.0
        assert second[0].priority == 0.0

    def test_file_roundtrip_identity(self, tmp_path):
        path = tmp_path / "rt.swf"
        first = parse_swf(SAMPLE_SWF)
        write_swf(first, path)
        second = read_swf(path)
        assert [j.nodes_required for j in first] == [j.nodes_required for j in second]
        assert [j.duration for j in first] == [j.duration for j in second]
