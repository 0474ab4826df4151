import json
import math
from typing import get_type_hints

import numpy as np
import pytest

from dglab.autodiff import Tensor
from dglab.data import TrainView, generate_spurious_gaussian, leave_one_domain_out
from dglab.errors import ConfigError, ContractError, DataFormatError, NumericError
from dglab.trainer import (
    STRATEGY_ALIGN,
    STRATEGY_CE,
    STRATEGY_MASK,
    TrainConfig,
    TrainRecord,
    choose_strategy,
    lr_schedule,
    train,
    train_step,
    write_history,
)
from dglab.models import build_mlp


def tiny_view(n_per=40, seed=0):
    ds = generate_spurious_gaussian(num_domains=3, classes=3, n_per_domain_class=n_per, seed=seed)
    view, _ = leave_one_domain_out(ds, "d0")
    return view


def tiny_cfg(**kwargs):
    defaults = dict(iterations=5, batch_size=16, sg_n=2, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def test_lr_schedule_paper_defaults():
    assert lr_schedule(0.001, 0, 2000, 0.1, 0.8) == 0.001
    assert lr_schedule(0.001, 1599, 2000, 0.1, 0.8) == 0.001
    assert lr_schedule(0.001, 1600, 2000, 0.1, 0.8) == 0.0001
    assert lr_schedule(0.001, 1999, 2000, 0.1, 0.8) == 0.0001


def test_lr_schedule_fraction_one_never_decays():
    for i in (0, 999):
        assert lr_schedule(0.01, i, 1000, 0.1, 1.0) == 0.01


def test_lr_schedule_rejects_out_of_range_iteration():
    with pytest.raises(ContractError):
        lr_schedule(0.001, 2000, 2000, 0.1, 0.8)
    with pytest.raises(ContractError):
        lr_schedule(0.001, -1, 2000, 0.1, 0.8)


def test_choose_strategy_fixed_modes():
    rng = np.random.default_rng(0)
    assert choose_strategy("align_only", rng) == STRATEGY_ALIGN
    assert choose_strategy("mask_only", rng) == STRATEGY_MASK
    assert choose_strategy("ce_only", rng) == STRATEGY_CE
    with pytest.raises(ConfigError, match="^unknown strategy_mode 'bogus'$"):
        choose_strategy("bogus", rng)


def test_choose_strategy_alternate_is_fair_coin():
    rng = np.random.default_rng(1)
    draws = [choose_strategy("alternate", rng) for _ in range(10_000)]
    frac_align = draws.count(STRATEGY_ALIGN) / len(draws)
    assert 0.47 <= frac_align <= 0.53
    assert set(draws) == {STRATEGY_ALIGN, STRATEGY_MASK}


def test_choose_strategy_seeded_reproducibility():
    a = [choose_strategy("alternate", np.random.default_rng(5)) for _ in range(1)]
    b = [choose_strategy("alternate", np.random.default_rng(5)) for _ in range(1)]
    assert a == b


def test_choose_strategy_rng_consumption():
    # alternate draws one coin per batch; the fixed modes leave the stream alone
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    for mode in ("align_only", "mask_only", "ce_only"):
        choose_strategy(mode, rng)
    choose_strategy("alternate", rng)
    twin.random()
    assert rng.random() == twin.random()


def test_config_defaults_match_protocol():
    cfg = TrainConfig()
    assert cfg.alpha == 0.1
    assert cfg.m_percent == 50
    assert cfg.q_max == 70
    assert cfg.sg_n == 25
    assert cfg.sg_sigma == 0.15
    assert cfg.batch_size == 128
    assert cfg.base_lr == 0.001
    assert cfg.lr_decay_factor == 0.1
    assert cfg.lr_decay_at_fraction == 0.8
    assert cfg.min_class_ratio == 0.5
    assert cfg.momentum == 0.9
    assert cfg.strategy_mode == "alternate"


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(alpha=-0.1)
    for mode in ("bogus", "combined", "alternate_even_odd"):
        with pytest.raises(ConfigError):
            TrainConfig(strategy_mode=mode)
    with pytest.raises(ConfigError):
        TrainConfig(iterations=0)


def test_config_checks_the_mask_ranges():
    # augment_batch reads m_percent and q_max from the run's config and trusts these checks
    for bad in ({"m_percent": -1}, {"m_percent": 100.5}, {"q_max": 120}):
        (name,) = bad
        with pytest.raises(ConfigError, match=rf"{name} must be in \[0, 100\]"):
            TrainConfig(**bad)
    for edge in (0, 100):
        cfg = TrainConfig(m_percent=edge, q_max=edge)
        assert (cfg.m_percent, cfg.q_max) == (edge, edge)


@pytest.mark.parametrize("ratio", [0, 0.0, -0.5, 1.5])
def test_min_class_ratio_outside_zero_one_rejected_by_the_config(ratio):
    # class_balanced_batches rejects 0 too, but only once training starts
    with pytest.raises(ConfigError, match=r"min_class_ratio must be in \(0, 1\]"):
        TrainConfig(min_class_ratio=ratio)
    assert TrainConfig(min_class_ratio=1.0).min_class_ratio == 1.0


# JSON true, null, a string, an integer no double holds, and the first integer past int64
NOT_A_SETTING = {"true": True, "null": None, "string": "x", "400-digits": 10**400, "2**63": 2**63}


@pytest.mark.parametrize("value", NOT_A_SETTING.values(), ids=NOT_A_SETTING.keys())
@pytest.mark.parametrize("name", get_type_hints(TrainConfig))
def test_config_rejects_what_no_field_holds(name, value):
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name", ["hidden", "channels"])
@pytest.mark.parametrize(
    "element",
    [10**30, 2**63, -(2**63) - 1, True, 1.0, "8"],
    ids=["10**30", "2**63", "below-int64", "true", "float", "string"],
)
def test_config_list_field_holds_only_int64_integers(name, element):
    with pytest.raises(ConfigError, match=f"{name} must be a list of int64 integers"):
        TrainConfig(**{name: [8, element]})


def test_config_keeps_numbers_as_written():
    # an integer literal in a float field stays an integer, so config.json writes it back unchanged;
    # the int64 bounds themselves are settings
    cfg = TrainConfig(m_percent=50, q_max=70, alpha=2**63 - 1, seed=2**63 - 1, hidden=[np.int64(4), 8])
    assert json.dumps(cfg.to_json_dict()["m_percent"]) == "50" and cfg.q_max == 70
    assert cfg.hidden == (4, 8) and all(type(h) is int for h in cfg.hidden)
    assert cfg.to_json_dict()["hidden"] == [4, 8] and cfg.to_json_dict()["channels"] == [8, 16]
    assert TrainConfig(alpha=np.float64(0.5)).alpha == 0.5


def test_config_json_round_trip(tmp_path):
    cfg = TrainConfig(alpha=0.2, hidden=(16, 8), iterations=77)
    path = tmp_path / "cfg.json"
    cfg.save_json(path)
    back = TrainConfig.load_json(path)
    assert back == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"alpha": 0.1, "bogus_knob": 3}')
    with pytest.raises(ConfigError):
        TrainConfig.load_json(path)


def _run_single_step(strategy, cfg, seed=0):
    model = build_mlp([10, 8], 3, seed=3)
    rng = np.random.default_rng(seed)
    gen = np.random.default_rng(11)
    X = gen.standard_normal((16, 10))
    y = gen.integers(0, 3, 16)
    momentum = {name: np.zeros_like(p.values) for name, p in model.params.items()}
    rec = train_step(model, (X, y), strategy, cfg, 0.01, rng, momentum)
    return model, rec


def test_align_with_alpha_zero_equals_plain_ce_update():
    cfg = tiny_cfg(alpha=0.0)
    m1, r1 = _run_single_step(STRATEGY_ALIGN, cfg)
    m2, r2 = _run_single_step(STRATEGY_CE, cfg)
    assert r1["loss_ce"] == r2["loss_ce"]
    assert r1["loss_align"] is None
    for name in m1.params:
        assert np.array_equal(m1.params[name].values, m2.params[name].values)


def test_mask_with_m_zero_equals_plain_ce_update():
    cfg = tiny_cfg(m_percent=0.0)
    m1, _ = _run_single_step(STRATEGY_MASK, cfg)
    m2, _ = _run_single_step(STRATEGY_CE, cfg)
    for name in m1.params:
        assert np.array_equal(m1.params[name].values, m2.params[name].values)


def test_zero_lr_step_keeps_params_bitwise():
    model = build_mlp([10, 8], 3, seed=4)
    before = {name: p.values.copy() for name, p in model.params.items()}
    gen = np.random.default_rng(12)
    X = gen.standard_normal((16, 10))
    y = gen.integers(0, 3, 16)
    momentum = {name: np.zeros_like(p.values) for name, p in model.params.items()}
    train_step(model, (X, y), STRATEGY_CE, tiny_cfg(), 0.0, np.random.default_rng(0), momentum)
    for name, p in model.params.items():
        assert np.array_equal(p.values, before[name])
    assert any(np.abs(v).max() > 0 for v in momentum.values())


def test_train_is_deterministic():
    view = tiny_view()
    cfg = tiny_cfg(strategy_mode="alternate", iterations=8)
    m1, h1 = train(view, cfg)
    m2, h2 = train(view, cfg)
    for name in m1.params:
        assert np.array_equal(m1.params[name].values, m2.params[name].values)
    assert [r.loss_ce for r in h1] == [r.loss_ce for r in h2]


def test_history_length_and_lr_column():
    view = tiny_view()
    cfg = tiny_cfg(iterations=10, lr_decay_at_fraction=0.5)
    _, hist = train(view, cfg)
    assert len(hist) == 10
    for r in hist:
        assert r.lr == lr_schedule(cfg.base_lr, r.iteration, 10, cfg.lr_decay_factor, 0.5)


def test_initial_ce_loss_near_log_c():
    view = tiny_view()
    cfg = tiny_cfg(strategy_mode="ce_only", iterations=1)
    _, hist = train(view, cfg)
    assert abs(hist[0].loss_ce - math.log(3)) < 0.2 * math.log(3)


def test_alternate_mode_shows_both_strategies():
    view = tiny_view()
    cfg = tiny_cfg(strategy_mode="alternate", iterations=50, sg_n=1)
    _, hist = train(view, cfg)
    kinds = {r.strategy for r in hist}
    assert kinds == {STRATEGY_ALIGN, STRATEGY_MASK}
    align_records = [r for r in hist if r.strategy == STRATEGY_ALIGN]
    assert all(r.loss_align is not None for r in align_records)
    mask_records = [r for r in hist if r.strategy == STRATEGY_MASK]
    assert all(r.loss_align is None for r in mask_records)


def test_history_records_hold_python_floats():
    # numpy 2 scalars repr as np.float64(...), which history.csv would then hold
    _, hist = train(tiny_view(), tiny_cfg(strategy_mode="alternate", iterations=12, sg_n=1))
    assert {r.strategy for r in hist} == {STRATEGY_ALIGN, STRATEGY_MASK}
    for r in hist:
        assert type(r.loss_ce) is float
        assert (r.loss_align is None) == (r.strategy == STRATEGY_MASK)
        assert r.loss_align is None or type(r.loss_align) is float


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_raises_numeric_error_with_context():
    view = tiny_view()
    cfg = tiny_cfg(strategy_mode="ce_only", iterations=40, base_lr=1e12)
    with pytest.raises(NumericError) as exc:
        train(view, cfg)
    assert "iteration" in str(exc.value)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_align_step_on_non_finite_logits_raises_numeric_error(bad):
    model = build_mlp([4, 5], 3, seed=0)
    model.params["head_b"].values[1] = bad
    momentum = {name: np.zeros_like(p.values) for name, p in model.params.items()}
    before = {name: p.values.copy() for name, p in model.params.items()}
    batch = (np.random.default_rng(0).standard_normal((6, 4)), np.array([0, 1, 2, 0, 1, 2]))
    with pytest.raises(NumericError, match="non-finite logits"):
        train_step(model, batch, STRATEGY_ALIGN, tiny_cfg(alpha=0.1), 0.01, np.random.default_rng(1), momentum)
    for name, p in model.params.items():
        assert np.array_equal(p.values, before[name], equal_nan=True)


def test_non_finite_loss_message_is_built_from_the_float_terms(monkeypatch):
    nan_objective = lambda logits, labels, alpha: (Tensor(np.array(np.nan)), float("nan"), 0.25)
    monkeypatch.setattr("dglab.trainer.objective_parts", nan_objective)
    model = build_mlp([4, 5], 3, seed=0)
    momentum = {name: np.zeros_like(p.values) for name, p in model.params.items()}
    batch = (np.random.default_rng(0).standard_normal((6, 4)), np.array([0, 1, 2, 0, 1, 2]))
    with pytest.raises(NumericError, match=r"^non-finite loss under strategy 'align' \(ce=nan, align=0\.25\)$"):
        train_step(model, batch, STRATEGY_ALIGN, tiny_cfg(), 0.01, np.random.default_rng(1), momentum)


def test_history_csv_export(tmp_path):
    view = tiny_view()
    _, hist = train(view, tiny_cfg(iterations=3, strategy_mode="ce_only"))
    path = tmp_path / "history.csv"
    write_history(path, hist)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,strategy,loss_ce,loss_align,lr,seconds"
    assert len(lines) == 4


def history_csv_oracle(history) -> str:
    """history.csv as the hand-written header and f-string rows wrote it."""
    lines = ["iteration,strategy,loss_ce,loss_align,lr,seconds"]
    for r in history:
        align = "" if r.loss_align is None else repr(r.loss_align)
        lines.append(f"{r.iteration},{r.strategy},{r.loss_ce!r},{align},{r.lr!r},{r.seconds!r}")
    return "".join(line + "\n" for line in lines)


def test_history_csv_columns_are_the_record_fields(tmp_path):
    written = [
        TrainRecord(iteration=0, strategy=STRATEGY_ALIGN, loss_ce=1.0986, loss_align=0.25, lr=0.001, seconds=0.5),
        TrainRecord(iteration=1, strategy=STRATEGY_MASK, loss_ce=1e-17, loss_align=None, lr=1e-4, seconds=3.25e-05),
    ]
    _, trained = train(tiny_view(), tiny_cfg(iterations=6, strategy_mode="alternate"))
    assert {r.strategy for r in trained} == {STRATEGY_ALIGN, STRATEGY_MASK}
    for history in (written, trained):
        path = tmp_path / "history.csv"
        write_history(path, history)
        assert path.read_bytes() == history_csv_oracle(history).encode()


def test_train_rejects_empty_view():
    with pytest.raises(ConfigError):
        train(TrainView(X=np.zeros((0, 4)), y=np.zeros(0, dtype=np.int64)), tiny_cfg())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_rejects_non_finite_data_before_any_step(value, monkeypatch):
    view = tiny_view()
    view.X[7, 3] = value
    view.X[9, 0] = np.nan  # a later row, which the message must not name
    monkeypatch.setattr("dglab.trainer.train_step", lambda *a: pytest.fail("trained on non-finite data"))
    with pytest.raises(DataFormatError, match=rf"^train: row 7: value {value} is not finite"):
        train(view, tiny_cfg())


def test_cnn_training_path():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 1, 16))
    y = rng.integers(0, 2, 60)
    # make the classes separable so the loss moves
    X[y == 1, 0, :4] += 2.0
    view = TrainView(X=X, y=y)
    cfg = TrainConfig(arch="cnn1d", channels=(4,), kernel=3, iterations=4, batch_size=8, sg_n=1, seed=0)
    model, hist = train(view, cfg)
    assert model.input_shape == (1, None)
    assert len(hist) == 4
