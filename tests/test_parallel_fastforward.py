"""Stream fast-forward: shard k resynthesizes exactly trace[start:end].

Sharded simulation is only meaningful if a worker can reconstruct its
slice of the monolithic run without building the prefix.  These tests pin
the equivalence element-for-element for every stream the core consumes:
the main op stream (including alias-paired load/store addresses, which
advance with the static program's iteration index) and the per-branch
wrong-path streams (re-keyed by monolithic branch seq).
"""

from dataclasses import replace

import pytest

from repro.parallel import OffsetWrongPathSource
from repro.workloads import PRESETS, WrongPathGenerator, generate, preset
from repro.workloads.synthetic import TraceGenerator, generate_window


@pytest.mark.parametrize("name", ["branchy", "memory-bound", "int-heavy"])
@pytest.mark.parametrize("start", [0, 1, 1234])
def test_generate_window_matches_monolithic_slice(name, start):
    profile = preset(name)
    full = generate(profile, 3_000, seed=3)
    window = generate_window(profile, start, 800, seed=3)
    assert window == full[start : start + 800]


def test_generate_window_with_alias_pairs():
    # Alias-paired load/store addresses are a function of the iteration
    # index, the subtlest thing fast_forward must keep in sync.
    profile = replace(preset("memory-bound"), store_alias_fraction=0.4)
    full = generate(profile, 2_500, seed=11)
    assert generate_window(profile, 700, 900, seed=11) == full[700:1600]


def test_fast_forward_composes():
    profile = preset("branchy")
    chunked = TraceGenerator(profile, seed=5)
    chunked.fast_forward(100)
    chunked.fast_forward(250)
    direct = TraceGenerator(profile, seed=5)
    direct.fast_forward(350)
    assert chunked.take(50) == direct.take(50)


def test_fast_forward_zero_is_identity():
    profile = preset("int-heavy")
    skipped = TraceGenerator(profile, seed=0)
    skipped.fast_forward(0)
    fresh = TraceGenerator(profile, seed=0)
    assert skipped.take(20) == fresh.take(20)


@pytest.mark.parametrize("name", ["branchy", "memory-bound"])
def test_take_and_fast_forward_compose_across_loop_iterations(name):
    # Chunks that start and stop mid-iteration, an empty one, and skips
    # between them: the generator's slot, iteration and cold pointer must
    # carry across every call.
    profile = replace(preset(name), loop_ops=97, store_alias_fraction=0.5)
    full = generate(profile, 2_000, seed=9)
    generator = TraceGenerator(profile, seed=9)
    pieces = []
    for skip, count in ((0, 30), (0, 0), (5, 97), (200, 1), (0, 400), (66, 300)):
        generator.fast_forward(skip)
        start = generator._index
        pieces.append((start, generator.take(count)))
    for start, piece in pieces:
        assert piece == full[start : start + len(piece)]


def test_take_rejects_negative_count():
    generator = TraceGenerator(preset("int-heavy"), seed=0)
    with pytest.raises(ValueError):
        generator.take(-1)


def test_fast_forward_rejects_negative_count():
    generator = TraceGenerator(preset("int-heavy"), seed=0)
    with pytest.raises(ValueError):
        generator.fast_forward(-1)


def test_generate_window_validates_bounds():
    profile = preset("int-heavy")
    with pytest.raises(ValueError):
        generate_window(profile, -1, 10)
    with pytest.raises(ValueError):
        generate_window(profile, 0, -10)


def test_offset_wrong_path_source_matches_monolithic_streams():
    # A shard hands the source shard-local branch seqs; with the fetch
    # offset added back, every stream must be the monolithic one.
    profile = PRESETS["branchy"]
    offset = 4_000
    trace = generate(profile, 5_000, seed=2)
    branches = [uop for uop in trace[offset:] if uop.is_branch()][:20]
    monolithic = WrongPathGenerator(profile, seed=2)
    sharded = OffsetWrongPathSource(profile, 2, offset)
    for local_seq, branch in enumerate(branches):
        expect = list(monolithic.iter_stream(branch, local_seq + offset, 32))
        assert list(sharded(branch, local_seq, 32)) == expect


def test_offset_zero_wrong_path_source_is_the_plain_generator():
    profile = PRESETS["branchy"]
    trace = generate(profile, 500, seed=0)
    branch = next(uop for uop in trace if uop.is_branch())
    plain = list(WrongPathGenerator(profile, seed=0).iter_stream(branch, 7, 16))
    assert list(OffsetWrongPathSource(profile, 0, 0)(branch, 7, 16)) == plain
