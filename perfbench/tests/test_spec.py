import json
import os
import re

from pb import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec_written_out():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_names_units_and_limits():
    names = (list(spec.WORKLOADS) + [m[0] for m in spec.END_TO_END]
             + [m[0] for m in spec.PER_LAYER])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m[1]) for m in spec.END_TO_END + spec.PER_LAYER)
    assert all(m[2] in ("lower", "higher")
               for m in spec.END_TO_END + spec.PER_LAYER)
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert all("\n" not in why and len(why) <= 200
               for why in spec.WORKLOADS.values())
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert 1 <= spec.RUN_SECONDS <= 60


def test_setup_time_has_the_largest_bound():
    assert spec.BETTER["setup_s"] == "lower"
    assert spec.END_TO_END_UNITS["setup_s"] == "s"
    assert all(0 < bound <= 0.25 for bound in spec.BOUNDS.values())
    assert spec.BOUNDS["setup_s"] == max(spec.BOUNDS.values())
