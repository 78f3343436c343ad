"""Combining predictor: meta-chooser training and misprediction rules."""

from repro.branch.combining import BranchPrediction, CombiningPredictor


def make_predictor() -> CombiningPredictor:
    return CombiningPredictor(
        gshare_entries=256,
        pas_l1_entries=64,
        pas_l2_entries=256,
        meta_entries=256,
        btb_entries=16,
        btb_ways=4,
    )


def meta_counter(predictor: CombiningPredictor, pc: int) -> int:
    return predictor._meta[predictor._meta_index(pc)]


PC = 0x1000
TARGET = 0x9000


def disagreeing(gshare: bool, pas: bool, taken: bool, target=TARGET) -> BranchPrediction:
    return BranchPrediction(taken=taken, target=target, gshare_taken=gshare, pas_taken=pas)


def test_meta_trains_toward_pas_when_pas_correct_on_disagreement():
    predictor = make_predictor()
    assert meta_counter(predictor, PC) == 1  # weakly gshare
    prediction = disagreeing(gshare=False, pas=True, taken=True)
    predictor.resolve(PC, prediction, taken=True, target=TARGET)
    assert meta_counter(predictor, PC) == 2  # now selects PAs
    predictor.resolve(PC, prediction, taken=True, target=TARGET)
    assert meta_counter(predictor, PC) == 3  # saturates high


def test_meta_trains_toward_gshare_when_gshare_correct_on_disagreement():
    predictor = make_predictor()
    prediction = disagreeing(gshare=True, pas=False, taken=True)
    predictor.resolve(PC, prediction, taken=True, target=TARGET)
    predictor.resolve(PC, prediction, taken=True, target=TARGET)
    assert meta_counter(predictor, PC) == 0  # saturates low


def test_meta_untouched_when_components_agree():
    predictor = make_predictor()
    prediction = BranchPrediction(taken=True, target=TARGET, gshare_taken=True, pas_taken=True)
    predictor.resolve(PC, prediction, taken=False, target=TARGET)
    assert meta_counter(predictor, PC) == 1


def test_wrong_direction_is_a_misprediction():
    predictor = make_predictor()
    prediction = BranchPrediction(taken=False, target=None, gshare_taken=False, pas_taken=False)
    assert predictor.resolve(PC, prediction, taken=True, target=TARGET) is True
    assert predictor.mispredictions == 1


def test_taken_with_wrong_target_is_a_misprediction():
    """Direction can be right and the branch still mispredicts on target."""
    predictor = make_predictor()
    prediction = BranchPrediction(
        taken=True, target=0xBAD0, gshare_taken=True, pas_taken=True
    )
    assert predictor.resolve(PC, prediction, taken=True, target=TARGET) is True


def test_taken_with_btb_miss_is_a_misprediction_until_target_installed():
    predictor = make_predictor()
    prediction = BranchPrediction(taken=True, target=None, gshare_taken=True, pas_taken=True)
    assert predictor.resolve(PC, prediction, taken=True, target=TARGET) is True
    # resolve() installed the target, so the BTB now supplies it.
    assert predictor.btb.lookup(PC) == TARGET


def test_not_taken_with_correct_direction_is_not_a_misprediction():
    predictor = make_predictor()
    prediction = BranchPrediction(taken=False, target=None, gshare_taken=False, pas_taken=False)
    assert predictor.resolve(PC, prediction, taken=False, target=PC + 4) is False
    assert predictor.mispredictions == 0


def test_predict_resolve_loop_converges_on_stable_branch():
    predictor = make_predictor()
    for _ in range(32):
        prediction = predictor.predict(PC)
        predictor.resolve(PC, prediction, taken=True, target=TARGET)
    prediction = predictor.predict(PC)
    assert prediction.taken is True
    assert prediction.target == TARGET
    assert predictor.resolve(PC, prediction, taken=True, target=TARGET) is False


def test_misprediction_rate_tracks_lookups():
    predictor = make_predictor()
    assert (predictor.lookups, predictor.mispredictions) == (0, 0)
    prediction = predictor.predict(PC)  # untrained: predicts not-taken
    predictor.resolve(PC, prediction, taken=True, target=TARGET)
    assert (predictor.lookups, predictor.mispredictions) == (1, 1)
