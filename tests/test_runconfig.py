import codecs
import dataclasses
import os
import re
import sys

import numpy as np
import pytest

import voxevo.runconfig
from voxevo.cli import main
from voxevo.experiments import CATALOG_ORDER, default_catalog
from voxevo.physics import PhysicsConfig
from voxevo.runconfig import (
    _SCHEMA,
    MODES,
    ConfigError,
    RunConfig,
    load_catalog,
    load_config,
    override,
    parse_config,
)
from voxevo.sensing import KINDS, ObservationConfig
from voxevo.walker import EpisodeConfig

from helpers import save_catalog

FULL_EXAMPLE = """
# demo configuration
[run]
seed = 42
out = runs/demo
workers = 2
mode = multi-body
paradigm = global
generations = 7

[evolution]
mu = 4
lambda = 5
controller_sigma = 0.05
checkpoint_every = 3

[physics]
gravity = 9.0
contact_friction = 0.5

[observation]
neighborhood_distance = 1

[episode]
max_steps = 120
step_penalty = 0.02

[experiment]
n_runs = 3
distances = 1, 2
samples_per_distance = 4
one_shot_lambda = 2
catalog_bodies = worm
"""


class TestParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_full_example(self):
        cfg = parse_config(FULL_EXAMPLE)
        assert cfg.seed == 42
        assert cfg.out == "runs/demo"
        assert cfg.workers == 2
        assert cfg.paradigm == "global"
        assert cfg.generations == 7
        assert (cfg.mu, cfg.lambda_) == (4, 5)
        assert cfg.p_body_mutation == 0.5  # untouched default: multi-body mutates no body
        assert cfg.controller_sigma == 0.05
        assert cfg.checkpoint_every == 3
        assert cfg.physics.gravity == 9.0
        assert cfg.physics.contact_friction == 0.5
        assert cfg.physics.rigid_stiffness == 6000.0  # untouched default
        assert cfg.observation.neighborhood_distance == 1
        assert cfg.episode.max_steps == 120
        assert cfg.episode.step_penalty == 0.02
        assert cfg.episode.shift_constant == pytest.approx(2.4)
        assert cfg.n_runs == 3
        assert cfg.distances == (1, 2)
        assert cfg.catalog == (default_catalog()["worm"],)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("\n# note\n\n[run]\n# another\nseed = 3\n")
        assert cfg.seed == 3


# One value per bound that a file rejects, with a fragment of its message.
BOUNDS = [
    ("run", "generations", "0", "generations must be >= 1"),
    ("run", "workers", "0", "workers must be >= 1"),
    # an empty out passed load and failed only when the run opened it
    ("run", "out", "", "out must not be empty, got ''"),
    ("evolution", "mu", "0", "mu must be >= 1"),
    # population checkpoints record their count in 16 bits
    ("evolution", "mu", "65536", "mu must be >= 1 and at most 65535"),
    ("evolution", "lambda", "0", "lambda must be >= 1"),
    ("evolution", "p_body_mutation", "1.5", "p_body_mutation must be in [0, 1]"),
    ("evolution", "p_body_mutation", "-0.1", "p_body_mutation must be in [0, 1]"),
    ("evolution", "controller_sigma", "-1", "controller_sigma must be >= 0"),
    ("evolution", "controller_sigma", "inf", "controller_sigma must be >= 0 and finite"),
    ("evolution", "controller_sigma", "nan", "controller_sigma must be >= 0 and finite"),
    # a negative period wrote checkpoints as if it were positive
    ("evolution", "checkpoint_every", "-2", "checkpoint_every must be >= 0"),
    ("experiment", "distances", "1, 0", "distances must be >= 1"),
    # no distances made transfer write a header-only transfer.csv
    ("experiment", "distances", "", "distances must be >= 1, non-empty and distinct"),
    # a repeated distance was sampled twice
    ("experiment", "distances", "2, 1, 2", "distances must be >= 1, non-empty and distinct"),
    # an empty catalog_file silently loaded the default catalog
    ("experiment", "catalog_file", "", "catalog_file must not be empty"),
    ("experiment", "catalog_bodies", "", "catalog_bodies must not be empty"),
    ("experiment", "samples_per_distance", "0", "samples_per_distance must be >= 1"),
    ("experiment", "one_shot_lambda", "-1", "one_shot_lambda must be >= 0"),
]


class TestErrors:
    def assert_error(self, text, fragment, line):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text, path="demo.cfg")
        err = exc_info.value
        assert fragment in err.message
        assert err.line == line
        assert str(err).startswith(f"demo.cfg:{line}:")

    def test_unknown_section(self):
        self.assert_error("[run]\nseed = 1\n[robot]\n", "unknown section", 3)

    def test_unknown_key(self):
        self.assert_error("[run]\nseed = 1\nbogus = 2\n", "unknown key", 3)

    def test_duplicate_key(self):
        self.assert_error("[run]\nseed = 1\nseed = 2\n", "duplicate", 3)

    def test_key_outside_section(self):
        self.assert_error("seed = 1\n", "outside", 1)

    def test_missing_equals(self):
        self.assert_error("[run]\nseed\n", "expected", 2)

    def test_bad_int(self):
        self.assert_error("[run]\nseed = many\n", "bad value", 2)

    def test_bad_float(self):
        self.assert_error("[observation]\nvelocity_clamp = fast\n", "bad value", 2)

    def test_bad_mode(self):
        self.assert_error("[run]\nmode = lamarckian\n", "mode", 2)

    def test_bad_paradigm(self):
        self.assert_error("[run]\nparadigm = central\n", "paradigm must be one of", 2)

    # under co-optimize the catalog keys loaded and were silently ignored
    @pytest.mark.parametrize("key, value", [("catalog_bodies", "squid"),
                                            ("catalog_file", "bodies.txt")])
    def test_catalog_keys_need_multi_body(self, key, value):
        message = f"{key} applies only to mode = multi-body"
        self.assert_error(f"[experiment]\n{key} = {value}\n", message, 2)
        self.assert_error(f"[experiment]\nn_runs = 2\n{key} = {value}\n"
                          "[run]\nmode = co-optimize\n", message, 3)

    # under multi-body the key loaded and drew no body mutation
    def test_p_body_mutation_needs_co_optimize(self):
        message = "p_body_mutation applies only to mode = co-optimize"
        self.assert_error("[run]\nmode = multi-body\n[evolution]\np_body_mutation = 0.9\n",
                          message, 4)
        self.assert_error("[evolution]\np_body_mutation = 0.9\n[run]\nmode = multi-body\n",
                          message, 2)
        text = "[run]\nmode = co-optimize\n[evolution]\np_body_mutation = 0.9\n"
        assert parse_config(text).p_body_mutation == 0.9

    # a file with several faults is refused at the first in check order: the
    # catalog keys' values after every field and section, and the mode that
    # p_body_mutation applies to before the catalog's bodies
    @pytest.mark.parametrize("text, fragment, line", [
        ("[run]\nmode = fixed-body\nseed = -1\n", "seed must be >= 0", 3),
        ("[experiment]\ncatalog_bodies =\n[evolution]\nmu = 0\n", "mu must be >= 1", 4),
        ("[run]\nmode = multi-body\n[experiment]\ncatalog_bodies = squid\n"
         "[evolution]\np_body_mutation = 0.5\n", "p_body_mutation applies only", 6),
    ])
    def test_several_faults_are_refused_in_check_order(self, text, fragment, line):
        self.assert_error(text, fragment, line)

    # np.random.SeedSequence rejects a negative entropy once the run has started
    def test_negative_seed(self):
        self.assert_error("[run]\nmode = co-optimize\nseed = -1\n", "seed must be >= 0", 3)

    @pytest.mark.parametrize("section, key, value, fragment", BOUNDS)
    def test_evolution_bounds_name_their_line(self, section, key, value, fragment):
        self.assert_error(f"[run]\nseed = 1\n[{section}]\n{key} = {value}\n",
                          fragment, 4)

    # a NaN step penalty evolved an all-NaN lineage and a NaN clamp died
    # mid-run; each is now rejected at load, at its own line
    @pytest.mark.parametrize("section, key, value", [
        ("episode", "terrain_end_x", "inf"),
        ("episode", "step_penalty", "nan"),
        ("episode", "divergence_floor", "-inf"),
        ("observation", "velocity_clamp", "nan"),
    ])
    def test_non_finite_value_names_its_line(self, section, key, value):
        self.assert_error(f"[run]\nseed = 1\n[{section}]\n{key} = {value}\n",
                          "finite", 4)

    # the first key, in file order, whose addition makes the section fail
    @pytest.mark.parametrize("text, line", [
        ("[physics]\ngravity = 5\nsoft_stiffness = 500\ncontact_friction = -2\n", 4),
        ("[observation]\nneighborhood_distance = 1\nvelocity_clamp = 5.0\ntime_period = 0\n", 4),
        ("[episode]\nmax_steps = 5\nstep_penalty = nan\naction_repeat = 0\n", 3),
    ])
    def test_section_error_names_the_key_at_fault(self, text, line):
        self.assert_error(text, "invalid [", line)

    # RunConfig's rule on mu and [episode] divergence_floor blames whichever
    # of the two keys comes last; a section key that holds only with a later
    # one of its section (a step penalty before its small max_steps) is not
    # blamed for it
    @pytest.mark.parametrize("text, line", [
        ("[evolution]\nmu = 2\n[episode]\ndivergence_floor = 1e308\n", 4),
        ("[episode]\ndivergence_floor = 1e304\n[evolution]\nmu = 20000\n", 4),
        ("[episode]\ndivergence_floor = -1e308\n", 2),
        ("[episode]\nstep_penalty = 1e15\nmax_steps = 1\ndivergence_floor = 1e308\n", 4),
    ])
    def test_divergence_floor_times_mu_must_be_finite(self, text, line):
        self.assert_error(text, "divergence_floor times mu = ", line)

    def test_divergence_floor_within_mu_accepted(self):
        cfg = parse_config("[evolution]\nmu = 2\n[episode]\ndivergence_floor = 8e307\n")
        assert cfg.episode.divergence_floor == 8e307

    def test_semantic_physics_error_points_at_section(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[physics]\nphysics_dt = 0\n", path="demo.cfg")
        assert "physics" in str(exc_info.value)

    def test_episode_shift_mismatch_surfaces(self):
        # shift_constant is derived from max_steps * step_penalty, not a key
        self.assert_error("[episode]\nmax_steps = 100\nshift_constant = 9\n",
                          "unknown key 'shift_constant'", 3)

    def test_normalize_volume_is_an_unknown_key(self):
        # with a rest area of 1 both of its settings gave the same bits
        self.assert_error("[observation]\nnormalize_volume = no\n",
                          "unknown key 'normalize_volume'", 2)


# the parser resolves mode, catalog_file and catalog_bodies into the catalog
class TestEvolutionConfigResolution:
    def test_co_optimize_has_no_bodies(self):
        cfg = parse_config("")
        assert cfg.catalog is None
        assert not cfg.brain_only

    # a fixed-body run is a one-body catalog
    def test_fixed_body_resolves_name(self):
        cfg = parse_config("[run]\nmode = multi-body\n[experiment]\ncatalog_bodies = worm\n")
        assert cfg.brain_only
        assert cfg.catalog == (default_catalog()["worm"],)

    # parse_config returned this config; the missing body surfaced only when
    # its bodies were resolved
    def test_unknown_fixed_body_raises(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("[run]\nmode = multi-body\n[experiment]\ncatalog_bodies = squid\n",
                         path="demo.cfg")
        assert str(exc_info.value) == "demo.cfg:4: catalog_bodies not in catalog: ['squid']"

    def test_multi_body_resolves_catalog(self):
        cfg = parse_config(
            "[run]\nmode = multi-body\n[experiment]\ncatalog_bodies = biped, worm\n")
        assert cfg.brain_only
        catalog = default_catalog()
        assert cfg.catalog == (catalog["biped"], catalog["worm"])

    # a config built in code is the config of the file that names its bodies
    def test_code_built_catalog_equals_the_parsed_file(self):
        catalog = default_catalog()
        assert parse_config("[run]\nmode = multi-body\n") == RunConfig(
            catalog=tuple(catalog[name] for name in CATALOG_ORDER))
        assert parse_config(
            "[run]\nseed = 4\nmode = multi-body\n[experiment]\ncatalog_bodies = worm, biped\n"
        ) == RunConfig(seed=4, catalog=(catalog["worm"], catalog["biped"]))

    def test_seed_and_workers_plumbed(self):
        cfg = parse_config("[run]\nseed = 9\n")
        evo = cfg.evolution_config(workers=3)
        assert evo.seed == 9 and evo.workers == 3

    def test_custom_catalog_file(self, tmp_path):
        path = tmp_path / "catalog.txt"
        save_catalog(str(path), {"stub": default_catalog()["block"]})
        cfg = parse_config(
            f"[run]\nmode = multi-body\n[experiment]\n"
            f"catalog_file = {path}\ncatalog_bodies = stub\n")
        assert cfg.catalog == (default_catalog()["block"],)

    # a battery read its catalog file once to check the config and again for
    # every run
    def test_catalog_file_is_read_once(self, tmp_path, monkeypatch):
        catalog = tmp_path / "catalog.txt"
        save_catalog(str(catalog), {"stub": default_catalog()["block"]})
        config = tmp_path / "run.cfg"
        config.write_text(
            f"[run]\nmode = multi-body\ngenerations = 1\n[evolution]\nmu = 2\nlambda = 1\n"
            f"[episode]\nmax_steps = 20\n[experiment]\nn_runs = 2\n"
            f"catalog_file = {catalog}\ncatalog_bodies = stub\n")
        reads = []
        monkeypatch.setattr(voxevo.runconfig, "load_catalog",
                            lambda path: reads.append(path) or load_catalog(path))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(config), "--out", str(out),
                     "--workers", "1"]) == 0
        assert reads == [str(catalog)]
        assert sorted(os.listdir(out)) == ["run_00", "run_01"]


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nseed = 5\n")
        assert load_config(str(path)).seed == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))

    # str.strip keeps U+FEFF: a file that began with a byte-order mark was
    # refused at line 1, a valid header
    def test_config_may_begin_with_a_byte_order_mark(self, tmp_path):
        text = "[run]\nseed = 5\n[experiment]\nn_runs = 2\n"
        path = tmp_path / "bom.cfg"
        path.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert load_config(str(path)) == parse_config(text)

    def test_catalog_may_begin_with_a_byte_order_mark(self, tmp_path):
        plain, bom = tmp_path / "plain.cat", tmp_path / "bom.cat"
        save_catalog(str(plain), default_catalog())
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert load_catalog(str(bom)) == load_catalog(str(plain))

    def test_semantic_errors_surface_at_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nmode = multi-body\n[experiment]\ncatalog_bodies = squid\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_mu_zero_names_its_line(self, tmp_path):
        path = tmp_path / "mu0.cfg"
        path.write_text("[run]\nseed = 1\n\n[evolution]\nlambda = 4\nmu = 0\n")
        with pytest.raises(ConfigError) as exc_info:
            load_config(str(path))
        assert re.match(rf"{re.escape(str(path))}:6: mu must be >= 1", str(exc_info.value))

    @pytest.mark.parametrize("text, line", [
        ("[run]\nmode = multi-body\n[experiment]\nn_runs = 1\ncatalog_bodies = squid\n", 5),
        ("[experiment]\ncatalog_bodies = worm, squid\n[run]\nmode = multi-body\n", 2),
    ])
    def test_unknown_body_name_points_at_its_key(self, tmp_path, text, line):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc_info:
            load_config(str(path))
        assert exc_info.value.line == line
        assert "squid" in exc_info.value.message

    def test_default_body_missing_from_catalog_file_points_at_the_file(self, tmp_path):
        catalog = tmp_path / "catalog.txt"
        save_catalog(str(catalog), {"stub": default_catalog()["block"]})
        path = tmp_path / "run.cfg"
        path.write_text(f"[run]\nmode = multi-body\n[experiment]\ncatalog_file = {catalog}\n")
        with pytest.raises(ConfigError) as exc_info:
            load_config(str(path))
        assert exc_info.value.line == 4
        assert "catalog_bodies not in catalog: ['biped'," in exc_info.value.message

    def test_error_includes_path_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nseed = 1\nbogus = 2\n")
        with pytest.raises(ConfigError) as exc_info:
            load_config(str(path))
        assert str(exc_info.value).startswith(f"{path}:3:")


class TestOverride:
    def test_replaces_only_given_fields(self):
        cfg = parse_config("[run]\nseed = 1\nout = a\nworkers = 4\n")
        new = override(cfg, seed=9)
        assert new.seed == 9 and new.out == "a" and new.workers == 4
        assert override(cfg) is cfg

    def test_all_fields(self):
        new = override(RunConfig(), seed=2, workers=8, out="runs/x")
        assert (new.seed, new.workers, new.out) == (2, 8, "runs/x")


# One non-default valid value per schema key; {out} and {catalog} are filled
# in per test.
NON_DEFAULT = {
    ("run", "seed"): "3",
    ("run", "out"): "{out}",
    ("run", "workers"): "2",
    ("run", "mode"): "multi-body",
    ("run", "paradigm"): "global",
    ("run", "generations"): "2",
    ("evolution", "mu"): "3",
    ("evolution", "lambda"): "2",
    ("evolution", "p_body_mutation"): "0.75",
    ("evolution", "controller_sigma"): "0.2",
    ("evolution", "checkpoint_every"): "1",
    ("physics", "rigid_stiffness"): "5000",
    ("physics", "soft_stiffness"): "500",
    ("physics", "actuator_stiffness"): "700",
    ("physics", "damping_ratio"): "0.2",
    ("physics", "gravity"): "5.0",
    ("physics", "physics_dt"): "0.002",
    ("physics", "substeps_per_env_step"): "4",
    ("physics", "actuation_min"): "0.7",
    ("physics", "actuation_max"): "1.4",
    ("physics", "contact_normal_stiffness"): "20000",
    ("physics", "contact_normal_damping"): "20",
    ("physics", "contact_friction"): "0.5",
    ("observation", "neighborhood_distance"): "1",
    ("observation", "velocity_clamp"): "5.0",
    ("observation", "time_period"): "10",
    ("episode", "max_steps"): "30",
    ("episode", "action_repeat"): "2",
    ("episode", "terrain_end_x"): "20",
    ("episode", "step_penalty"): "0.02",
    ("episode", "divergence_floor"): "-5",
    ("experiment", "n_runs"): "2",
    ("experiment", "distances"): "1, 2",
    ("experiment", "samples_per_distance"): "3",
    ("experiment", "one_shot_lambda"): "2",
    ("experiment", "catalog_file"): "{catalog}",
    ("experiment", "catalog_bodies"): "worm, biped",
}

# one tiny generation; the key under test overrides these
TINY = {"run": {"generations": "1"}, "evolution": {"mu": "2", "lambda": "1"},
        "episode": {"max_steps": "20"}}

# keys that TINY's default co-optimize mode rejects: they name the bodies of
# a multi-body run
MULTI_BODY_ONLY = {("experiment", "catalog_file"), ("experiment", "catalog_bodies")}


@pytest.mark.parametrize("section, key", [
    (section, key) for section in _SCHEMA for key in _SCHEMA[section]])
def test_every_key_runs_or_is_rejected_with_its_line(section, key, tmp_path, capsys):
    # the file gives each built-in name another built-in body, so the config
    # that names it differs from the default multi-body config
    builtin = default_catalog()
    renamed = CATALOG_ORDER[1:] + CATALOG_ORDER[:1]
    catalog = tmp_path / "catalog.txt"
    save_catalog(str(catalog), {name: builtin[body] for name, body in zip(CATALOG_ORDER, renamed)})
    out = str(tmp_path / "out")
    value = NON_DEFAULT[(section, key)].format(out=out, catalog=catalog)
    mode = "[run]\nmode = multi-body\n" if (section, key) in MULTI_BODY_ONLY else ""
    assert parse_config(f"{mode}[{section}]\n{key} = {value}\n") != parse_config(mode)

    sections = {name: dict(pairs) for name, pairs in TINY.items()}
    sections.setdefault(section, {})[key] = value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items())
        for name, pairs in sections.items()))
    argv = ["evolve", "--config", str(cfg)]
    if key != "out":
        argv += ["--out", out]
    if key != "workers":
        argv += ["--workers", "1"]

    rc = main(argv)
    assert (rc == 2) == ((section, key) in MULTI_BODY_ONLY)
    if rc == 0:
        run_dir = os.path.join(out, "run_00") if key == "n_runs" else out
        assert os.path.exists(os.path.join(run_dir, "generations.csv"))
        assert not [name for _, _, names in os.walk(out)
                    for name in names if name.endswith(".partial")]
    else:
        assert rc == 2
        assert re.search(rf"{re.escape(str(cfg))}:\d+: ", capsys.readouterr().err)
        assert not os.path.exists(out)



# Values below 0 that load_config once accepted. The last pair switched
# ground contact off without a word, and the body fell through the floor.
NEGATIVE_PHYSICS = [
    {"rigid_stiffness": "-5.0"},
    {"soft_stiffness": "-5.0"},
    {"actuator_stiffness": "-5.0"},
    {"damping_ratio": "-1"},
    {"contact_normal_stiffness": "-5.0"},
    {"contact_normal_damping": "-5.0"},
    {"contact_friction": "-2.0"},
    {"contact_normal_stiffness": "-5.0", "contact_friction": "-2.0"},
]


@pytest.mark.parametrize("keys", NEGATIVE_PHYSICS, ids=lambda keys: "+".join(keys))
def test_negative_physics_value_is_rejected_with_its_line(keys, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ngenerations = 1\n[physics]\n"
                   + "".join(f"{key} = {value}\n" for key, value in keys.items()))
    out = str(tmp_path / "out")
    assert main(["evolve", "--config", str(cfg), "--out", out, "--workers", "1"]) == 2
    assert re.search(rf"{re.escape(str(cfg))}:4: invalid \[physics\] settings: "
                     rf"[a-z_]+ must be >= 0, got -",
                     capsys.readouterr().err)
    assert not os.path.exists(out)


# a fixed-body run is `mode = multi-body` with `catalog_bodies = <name>`
@pytest.mark.parametrize("text, line, message", [
    ("[run]\ngenerations = 1\nmode = fixed-body\n", 3,
     "mode must be one of ('co-optimize', 'multi-body'), got 'fixed-body'"),
    ("[run]\ngenerations = 1\n[experiment]\nfixed_body = worm\n", 4,
     "unknown key 'fixed_body' in section [experiment]"),
])
def test_fixed_body_keys_are_rejected_with_their_line(text, line, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = str(tmp_path / "out")
    assert main(["evolve", "--config", str(cfg), "--out", out, "--workers", "1"]) == 2
    assert f"error: {cfg}:{line}: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_zero_generations_is_rejected_before_any_output(tmp_path, capsys):
    # a run with no generation would leave a generations.csv that `report` refuses
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ngenerations = 0\n")
    out = str(tmp_path / "out")
    assert main(["evolve", "--config", str(cfg), "--out", out, "--workers", "1"]) == 2
    assert re.search(rf"{re.escape(str(cfg))}:2: generations must be >= 1",
                     capsys.readouterr().err)
    assert not os.path.exists(out)


# a repeated distance wrote its samples twice, and transfer_summary.txt
# reported the doubled distance twice; a repeated body was scored twice
@pytest.mark.parametrize("command, text, line, message", [
    ("transfer", "[experiment]\ndistances = 1, 1\nsamples_per_distance = 2\n", 2,
     "distances must be >= 1, non-empty and distinct, got (1, 1)"),
    ("evolve", "[run]\ngenerations = 1\nmode = multi-body\n"
     "[experiment]\ncatalog_bodies = worm, worm\n", 5,
     "catalog_bodies must name distinct bodies, got ('worm', 'worm')"),
])
def test_repeated_list_entry_is_refused_before_any_output(command, text, line, message,
                                                          tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = str(tmp_path / "out")
    champion = ["--champion", str(tmp_path / "champion.ckpt")] if command == "transfer" else []
    assert main([command, "--config", str(cfg), "--out", out, "--workers", "1",
                 *champion]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
    assert os.listdir(tmp_path) == ["run.cfg"]


# the command-line flags that set a [run] key
FLAGS = {"seed": "--seed", "workers": "--workers", "out": "--out"}


# the keys that name the catalog, not a field of their own
CATALOG_KEYS = {"mode", "catalog_file", "catalog_bodies"}


# Each bound lives in the dataclass that declares its field: the file names
# the line, the dataclass gives the same message, and a flag names itself.
@pytest.mark.parametrize("section, key, value, fragment", BOUNDS + [
    ("run", "seed", "-1", "seed must be >= 0"),
    ("run", "mode", "fixed-body", "mode must be one of"),
    ("run", "paradigm", "central", "paradigm must be one of"),
    ("experiment", "n_runs", "0", "n_runs must be >= 1"),
])
def test_file_dataclass_and_flag_reject_alike(section, key, value, fragment, tmp_path,
                                              monkeypatch, capsys):
    with pytest.raises(ConfigError) as from_file:
        parse_config(f"[{section}]\n{key} = {value}\n", path="demo.cfg")
    message = from_file.value.message
    assert from_file.value.line == 2 and fragment in message

    assert message.startswith(f"{key} ")
    if key not in CATALOG_KEYS:
        field = "lambda_" if key == "lambda" else key
        with pytest.raises(ValueError) as from_dataclass:
            RunConfig(**{field: _SCHEMA[section][key](value)})
        assert str(from_dataclass.value) == message

    if key in FLAGS:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\ngenerations = 1\nout = {tmp_path / 'out'}\n")
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--config", str(cfg), FLAGS[key], value]) == 2
        assert f"error: {FLAGS[key]}: {message}\n" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]


SECTION_CONFIGS = {"physics": PhysicsConfig, "observation": ObservationConfig,
                   "episode": EpisodeConfig}


# each of these sections is one dataclass, and its keys are that dataclass's
# field names: the contact constants were once a nested dataclass whose keys
# took a prefix and whose refusals spelled them with a space
@pytest.mark.parametrize("section", list(SECTION_CONFIGS))
def test_section_keys_are_the_field_names(section):
    names = [f.name for f in dataclasses.fields(SECTION_CONFIGS[section])]
    assert list(_SCHEMA[section]) == names


# the section dataclasses refuse as RunConfig does, naming the key: they once
# said "physics config values must be finite", "actuation range must straddle
# 1.0", "episode config values must be finite" or spelled "time period"
@pytest.mark.parametrize("section, key, value, rule", [
    ("physics", "rigid_stiffness", "nan", "must be finite"),
    ("physics", "damping_ratio", "-inf", "must be finite"),
    ("physics", "gravity", "inf", "must be finite"),
    ("physics", "physics_dt", "inf", "must be finite"),
    ("physics", "actuation_min", "-inf", "must be finite"),
    ("physics", "actuation_min", "1.2", "must be < 1.0"),
    # at or below 0 a contracting edge's rest length |scale| fell to 0 and rose again
    ("physics", "actuation_min", "0", "must be > 0"),
    ("physics", "actuation_max", "nan", "must be finite"),
    ("physics", "actuation_max", "0.9", "must be > 1.0"),
    ("physics", "contact_normal_stiffness", "-1", "must be >= 0"),
    ("physics", "contact_normal_damping", "-1", "must be >= 0"),
    ("physics", "contact_friction", "-1", "must be >= 0"),
    ("physics", "contact_friction", "-inf", "must be finite"),
    ("observation", "neighborhood_distance", "5", "must be in [0, 4]"),
    ("observation", "time_period", "0", "must be >= 1"),
    ("observation", "velocity_clamp", "0", "must be > 0 and finite"),
    ("observation", "velocity_clamp", "inf", "must be > 0 and finite"),
    ("episode", "max_steps", "0", "must be >= 1"),
    ("episode", "action_repeat", "0", "must be >= 1"),
    ("episode", "terrain_end_x", "inf", "must be finite"),
    ("episode", "step_penalty", "nan", "must be finite"),
    ("episode", "step_penalty", "1e308", "times max_steps = 500 must be finite"),
    ("episode", "divergence_floor", "-inf", "must be finite"),
])
def test_section_refusals_name_their_key(section, key, value, rule):
    typed = _SCHEMA[section][key](value)
    expected = f"{key} {rule}, got {typed!r}"
    with pytest.raises(ValueError) as from_dataclass:
        SECTION_CONFIGS[section](**{key: typed})
    assert str(from_dataclass.value) == expected
    with pytest.raises(ConfigError) as from_file:
        parse_config(f"[{section}]\n{key} = {value}\n", path="demo.cfg")
    assert str(from_file.value) == f"demo.cfg:2: invalid [{section}] settings: {expected}"


# The bounds that each key's rule names, for the sweep below (a key absent
# names none); step_penalty's and divergence_floor's hold at the default
# max_steps and mu
RULE_BOUNDS = {
    "seed": (0,), "workers": (1,), "generations": (1,), "mu": (1, 65535), "lambda": (1,),
    "p_body_mutation": (0.0, 1.0), "controller_sigma": (0.0,), "checkpoint_every": (0,),
    **dict.fromkeys(("rigid_stiffness", "soft_stiffness", "actuator_stiffness",
                     "damping_ratio", "contact_normal_stiffness", "contact_normal_damping",
                     "contact_friction", "physics_dt"), (0.0,)),
    "substeps_per_env_step": (1,), "actuation_min": (0.0, 1.0), "actuation_max": (1.0,),
    "neighborhood_distance": (0, 4), "velocity_clamp": (0.0,), "time_period": (1,),
    "max_steps": (1,), "action_repeat": (1,), "step_penalty": (2.0 ** 53 / 500,),
    "divergence_floor": (-sys.float_info.max / 16,), "n_runs": (1,), "distances": (1,),
    "samples_per_distance": (1,), "one_shot_lambda": (0,),
}

DEFAULTS = {f.name.rstrip("_"): f.default
            for make in (RunConfig, PhysicsConfig, ObservationConfig, EpisodeConfig)
            for f in dataclasses.fields(make) if f.default not in (None, dataclasses.MISSING)}

# the keys that only some modes accept: a text draws them more often
MODE_ONLY = {"mode", "catalog_file", "catalog_bodies", "p_body_mutation"}


def sweep_catalogs(folder) -> list[str]:
    """Catalog files for the sweep in `folder`: one that loads, one with a
    short body, one that is not UTF-8 and one that does not exist."""
    good, short, undecodable = (folder / name for name in ("good.cat", "short.cat", "bin.cat"))
    save_catalog(str(good), default_catalog())
    short.write_text("[stub]\n33333\n")
    undecodable.write_bytes(b"[stub]\n\xff3333\n")
    return [str(good), str(short), str(undecodable), str(folder / "missing.cat")]


def sweep_value(rng, section: str, key: str, catalogs: list[str]) -> str:
    """A value of `key` as a file spells it: its default, each bound its rule
    names and the nearest value on either side, +-1e300, nan, inf, nothing,
    or a random number; a name, or a list of names, for a key that takes
    them."""
    names = {"mode": [*MODES, "fixed-body"], "paradigm": [*KINDS, "central"],
             "out": ["runs/sweep"], "catalog_file": catalogs}
    if key in names:
        return str(rng.choice([*names[key], ""]))
    if key == "catalog_bodies":
        return ", ".join(rng.choice([*CATALOG_ORDER, "squid"], size=rng.integers(0, 4)))
    is_float = _SCHEMA[section][key] is float
    default = DEFAULTS.get(key)
    pool = [] if default is None else [", ".join(map(str, default)) if key == "distances"
                                       else repr(default)]
    for bound in RULE_BOUNDS.get(key, ()):
        near = ((np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)) if is_float
                else (bound - 1, bound, bound + 1))
        pool += [repr(float(v)) if is_float else str(v) for v in near]
    pool += ["1e300", "-1e300", "nan", "inf", "",
             repr(float(rng.normal() * 10.0 ** rng.integers(-3, 6))) if is_float
             else str(rng.integers(-5, 100))]
    if key == "distances":
        return ", ".join(rng.choice(pool, size=rng.integers(0, 4)))
    return str(rng.choice(pool))


def sweep_texts(catalogs: list[str], count: int = 300, seed: int = 18) -> list[str]:
    """`count` config texts drawn from a seeded generator, each of 1-4 keys
    of `_SCHEMA`, each key under a header of its own."""
    rng = np.random.default_rng(seed)
    keys = [(section, key) for section in _SCHEMA for key in _SCHEMA[section]]
    weights = np.array([4.0 if key in MODE_ONLY else 1.0 for _, key in keys])
    texts = []
    for _ in range(count):
        drawn = rng.choice(len(keys), size=rng.integers(1, 5), replace=False,
                           p=weights / weights.sum())
        texts.append("".join(f"[{keys[i][0]}]\n{keys[i][1]} = "
                             f"{sweep_value(rng, *keys[i], catalogs)}\n" for i in drawn))
    return texts


# each drawn config parses, or is refused with a ConfigError at the line of
# one of its keys: no other exception escapes the parser
def test_seeded_config_sweep_parses_or_names_a_key_line(tmp_path):
    for text in sweep_texts(sweep_catalogs(tmp_path)):
        try:
            parse_config(text, "sweep.cfg")
        except ConfigError as exc:
            key_lines = [n for n, line in enumerate(text.splitlines(), start=1) if "=" in line]
            assert exc.path == "sweep.cfg" and exc.line in key_lines, text
        except Exception as exc:
            pytest.fail(f"{exc!r} escaped from:\n{text}")
