"""Config schema, validation, flat-file parsing, hashing, and presets."""

import dataclasses

import pytest

from gpconsensus.config import (
    LEARNING_MODES,
    TRIGGER_FOR_LEARNING,
    SimConfig,
    config_hash,
    config_to_text,
    parse_config_file,
    parse_config_text,
    validate_config,
)
from gpconsensus.errors import ConfigError, InvalidParam
from gpconsensus.presets import BENCH_INITIAL_STATES, CASE_IDS, apply_case, case_preset


def valid(**kw) -> SimConfig:
    return SimConfig(**kw)


class TestValidation:
    def test_defaults_pass(self):
        validate_config(SimConfig())

    def test_returns_same_object(self):
        cfg = SimConfig()
        assert validate_config(cfg) is cfg

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_agents", 0),
            ("controller", "pid"),
            ("learning", "offline_naive"),
            ("predictor", "table"),
            ("measurement_mode", "kalman"),
            ("dt", 0.0),
            ("dt", -1e-3),
            ("t_end", -1.0),
            ("c", 0.0),
            ("c_bar", -2.0),
            ("sigma_f", 0.0),
            ("length_scale", -0.05),
            ("sigma_n", 0.0),
            ("delta", 0.0),
            ("delta", 1.0),
            ("tau", 0.0),
            ("seed", -1),
            ("max_points", 0),
            ("log_stride", 0),
            ("offline_dataset_size", -1),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        cfg = dataclasses.replace(SimConfig(), **{field: value})
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_delta_cap_applies_to_compensated_controller(self):
        # the probabilistic union over agents needs delta < 1/N
        bad = valid(controller="proposed", n_agents=4, delta=0.25)
        with pytest.raises(ConfigError):
            validate_config(bad)
        ok = valid(controller="conventional", learning="offline", n_agents=4, delta=0.25)
        validate_config(ok)

    def test_offline_size_le_max_points(self):
        with pytest.raises(ConfigError):
            validate_config(valid(offline_dataset_size=30, max_points=20))

    def test_initial_states_length(self):
        with pytest.raises(ConfigError):
            validate_config(valid(n_agents=4, initial_states=(0.0, 1.0)))

    def test_initial_states_finite(self):
        with pytest.raises(ConfigError):
            validate_config(valid(n_agents=2, initial_states=(0.0, float("nan"))))

    def test_oracle_predictor_needs_static_model(self):
        with pytest.raises(ConfigError):
            validate_config(valid(predictor="oracle", learning="online_naive"))
        with pytest.raises(ConfigError):
            validate_config(valid(predictor="oracle", offline_dataset_size=10))
        validate_config(
            valid(
                predictor="oracle_biased",
                learning="offline",
                controller="conventional",
                offline_dataset_size=0,
            )
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "c",
            "c_bar",
            "eps_bias",
            "dt",
            "t_end",
            "sigma_f",
            "length_scale",
            "sigma_n",
            "delta",
            "tau",
            "lip_f",
        ],
    )
    def test_rejects_non_finite_float(self, field, value):
        cfg = dataclasses.replace(SimConfig(), **{field: value})
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            validate_config(cfg)

    def test_rejects_non_finite_plant_param(self):
        cfg = valid(plant="affine", plant_params=(("f_offset", float("nan")), ("f_slope", 0.0)))
        with pytest.raises(ConfigError, match="plant.f_offset must be finite"):
            validate_config(cfg)

    def test_t_end_zero_allowed(self):
        validate_config(valid(t_end=0.0))

    @pytest.mark.parametrize("t_end", [0.25, 10.0])
    def test_whole_step_horizon_accepted(self, t_end):
        validate_config(valid(t_end=t_end))

    def test_horizon_between_steps_rejected(self):
        # a run takes round(t_end / dt) steps: 0.0016 would end at 0.002
        with pytest.raises(ConfigError, match="t_end must be a whole number of dt steps"):
            validate_config(valid(t_end=0.0016))

    def test_every_learning_mode_has_a_trigger(self):
        assert set(TRIGGER_FOR_LEARNING) == set(LEARNING_MODES)
        assert TRIGGER_FOR_LEARNING["offline"] is None
        assert TRIGGER_FOR_LEARNING["online_proposed"] == "proposed"


class TestSerialization:
    def test_round_trip_defaults(self):
        cfg = SimConfig()
        assert parse_config_text(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("case_id", ["a", "b", "c", "d"])
    def test_round_trip_presets(self, case_id):
        cfg = case_preset(case_id)
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_round_trip_plant_params(self):
        cfg = valid(
            plant="affine",
            plant_params=(("f_offset", 2.0), ("f_slope", 0.5)),
        )
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_round_trip_sampled_initial_states(self):
        cfg = valid(initial_states=None)
        assert parse_config_text(config_to_text(cfg)).initial_states is None

    def test_round_trip_explicit_lip(self):
        cfg = valid(lip_f=10.06)
        assert parse_config_text(config_to_text(cfg)).lip_f == 10.06

    def test_round_trip_every_scalar_field(self):
        # a field parses by the kind of its default; only these four keys
        # have a syntax of their own
        bump = {int: lambda v: v + 1, float: lambda v: 2.0 * v + 0.125, str: lambda v: v + "x"}
        scalar = [f for f in dataclasses.fields(SimConfig) if type(f.default) in bump]
        special = {f.name for f in dataclasses.fields(SimConfig)} - {f.name for f in scalar}
        assert special == {"edges", "plant_params", "initial_states", "lip_f"}
        for f in scalar:
            cfg = valid(**{f.name: bump[type(f.default)](f.default)})
            assert cfg != SimConfig()
            assert parse_config_text(config_to_text(cfg)) == cfg

    def test_hash_is_stable_and_sensitive(self):
        a = config_hash(SimConfig())
        b = config_hash(SimConfig())
        c = config_hash(valid(seed=1))
        assert a == b
        assert a != c
        assert len(a) == 12
        int(a, 16)  # hex digest prefix

    def test_text_is_parsable_line_format(self):
        for line in config_to_text(SimConfig()).strip().splitlines():
            assert "=" in line


class TestParsing:
    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# header\n\nseed = 7  # trailing\n")
        assert cfg.seed == 7

    def test_override_order_is_last_wins(self):
        cfg = parse_config_text("seed = 1\nseed = 2\n")
        assert cfg.seed == 2

    def test_parses_over_base(self):
        base = case_preset("d")
        cfg = parse_config_text("t_end = 3.5\n", base)
        assert cfg.t_end == 3.5
        assert cfg.controller == base.controller

    def test_edges_format(self):
        cfg = parse_config_text("n_agents = 3\nedges = 1-2, 2-3\n")
        assert cfg.edges == ((1, 2), (2, 3))

    def test_initial_states_keyword_and_list(self):
        assert parse_config_text("initial_states = sample\n").initial_states is None
        cfg = parse_config_text("n_agents = 2\ninitial_states = 0.5, -0.5\n")
        assert cfg.initial_states == (0.5, -0.5)

    def test_plant_dotted_params(self):
        cfg = parse_config_text("plant = affine\nplant.f_offset = 2.0\n")
        assert cfg.plant == "affine"
        assert dict(cfg.plant_params)["f_offset"] == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("gain = 1.0\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed = 1.5\n")

    def test_bad_float_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("c = fast\n")

    def test_bad_edge_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("edges = 1:2\n")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        cfg = case_preset("b")
        path.write_text(config_to_text(cfg))
        assert parse_config_file(path) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.cfg")


class TestPresets:
    def test_case_ids(self):
        assert CASE_IDS == ("a", "b", "c", "d")

    def test_case_fields(self):
        a = case_preset("a")
        assert (a.controller, a.learning, a.offline_dataset_size) == (
            "conventional",
            "offline",
            150,
        )
        b = case_preset("b")
        assert (b.controller, b.learning, b.offline_dataset_size) == (
            "conventional",
            "online_naive",
            0,
        )
        c = case_preset("c")
        assert (c.controller, c.learning, c.offline_dataset_size) == (
            "proposed",
            "offline",
            150,
        )
        d = case_preset("d")
        assert (d.controller, d.learning, d.offline_dataset_size) == (
            "proposed",
            "online_proposed",
            0,
        )

    def test_shared_benchmark_fields(self):
        for cid in CASE_IDS:
            cfg = case_preset(cid)
            assert cfg.case_label == cid
            assert cfg.n_agents == 4
            assert cfg.edges == ((1, 2), (2, 3), (3, 4), (4, 1))
            assert cfg.plant == "benchmark"
            assert cfg.initial_states == BENCH_INITIAL_STATES
            assert (cfg.c, cfg.c_bar) == (1.0, 1.0)
            assert (cfg.sigma_f, cfg.length_scale, cfg.sigma_n) == (1.0, 0.05, 0.01)
            assert (cfg.delta, cfg.tau) == (0.01, 1e-3)
            assert cfg.t_end == 10.0
            validate_config(cfg)

    def test_apply_case_keeps_other_fields(self):
        base = valid(seed=99, t_end=2.0, initial_states=None)
        cfg = apply_case(base, "c")
        assert cfg.seed == 99
        assert cfg.t_end == 2.0
        assert cfg.initial_states is None
        assert cfg.controller == "proposed"
        assert cfg.offline_dataset_size == 150

    def test_unknown_case(self):
        with pytest.raises(InvalidParam):
            case_preset("e")
        with pytest.raises(InvalidParam):
            apply_case(SimConfig(), "z")
