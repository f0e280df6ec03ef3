"""The benchmark's span tracer wraps fstmorph functions by name, from
outside; a rename would break `bench/run.py --trace 1` and nothing else."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "bench"))

import spans  # noqa: E402


def test_every_wrapped_function_exists():
    for owner, attribute, _ in spans.WRAPPED:
        assert callable(getattr(owner, attribute, None)), (owner, attribute)
