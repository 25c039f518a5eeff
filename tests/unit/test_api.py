"""Unit tests of the public API layer: registries and campaign expansion.

The campaign invariants tested here are the contract the async runtime
relies on: manifests round-trip exactly, per-cell seeds are pure functions
of the cell's coordinates (never of enumeration order), and the grid
expands to the full cartesian product.
"""

import json

import pytest

from repro.api import (
    BACKENDS,
    Campaign,
    CampaignError,
    CampaignTooLarge,
    ComponentRegistry,
    RegistryError,
    backend_names,
    campaign,
    campaign_from_dict,
    campaign_cell_seed,
    expand_grid,
    load_campaign,
    scorer_names,
    Session,
)
from repro.config import SamplingConfig
from repro.runtime import RunStore
from repro.runtime.spec import CampaignManifest, CellSpec

SMOKE = SamplingConfig(population_size=16, n_complexes=4, iterations=2)


class TestComponentRegistry:
    def test_builtin_backends_and_scorers_registered(self):
        assert {"cpu", "gpu", "xp", "jax"} <= set(backend_names())
        assert {"vdw", "triplet", "dist"} <= set(scorer_names())

    def test_aliases_resolve_to_canonical_factory(self):
        assert BACKENDS.factory("simt") is BACKENDS.factory("gpu")
        assert BACKENDS.factory("CPU-GPU") is BACKENDS.factory("gpu")

    def test_unknown_component_raises(self):
        with pytest.raises(RegistryError, match="unknown backend"):
            BACKENDS.factory("tpu")

    def test_registry_error_message_is_plain_text(self):
        try:
            BACKENDS.factory("tpu")
        except RegistryError as exc:
            assert not str(exc).startswith('"'), "KeyError repr-quoting leaked"
            assert "unknown backend 'tpu'" in str(exc)

    def test_canonical_resolves_aliases_and_passes_unknowns(self):
        assert BACKENDS.canonical("SIMT") == "gpu"
        assert BACKENDS.canonical("gpu") == "gpu"
        assert BACKENDS.canonical("not-a-backend") == "not-a-backend"

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = ComponentRegistry("widget")
        registry.register("w", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("w", lambda: 2)
        registry.register("w", lambda: 2, replace=True)
        assert registry.create("w") == 2

    def test_decorator_registration_and_aliases(self):
        registry = ComponentRegistry("widget")

        @registry.register("main", aliases=("alt",))
        def build(x):
            return x * 2

        assert registry.create("alt", 21) == 42
        assert "main" in registry and "alt" in registry

    def test_registered_backend_reachable_through_make_backend(self, small_target):
        from repro.api import register_backend
        from repro.backends import make_backend
        from repro.scoring import default_multi_score

        calls = []

        def fake_backend(target, multi_score, config, **kwargs):
            calls.append(target.name)
            return "fake"

        register_backend("test-fake", fake_backend, replace=True)
        multi = default_multi_score(small_target)
        assert make_backend("test-fake", small_target, multi, SMOKE) == "fake"
        assert calls == [small_target.name]


class TestCampaignExpansion:
    def _grid(self, **overrides):
        defaults = dict(
            campaign_id="grid",
            targets=("1cex(40:51)", "1akz(181:192)"),
            configs=(("small", SMOKE), ("big", SMOKE.scaled(2.0))),
            seeds=(0, 1, 2),
            backends=("gpu", "xp"),
            base_seed=5,
            checkpoint_every=2,
            workers=2,
        )
        defaults.update(overrides)
        return Campaign(**defaults)

    def test_grid_expands_to_full_product(self):
        grid = self._grid()
        assert grid.n_trajectories == 2 * 2 * 3 * 2
        cells = grid.cells()
        assert [c.index for c in cells] == list(range(24))
        coords = {(c.target, c.config_name, c.seed_index, c.backend) for c in cells}
        assert len(coords) == 24

    def test_axes_must_be_nonempty_and_unique(self):
        with pytest.raises(ValueError, match="non-empty"):
            self._grid(targets=())
        with pytest.raises(ValueError, match="duplicates"):
            self._grid(seeds=(0, 0))
        with pytest.raises(ValueError, match="duplicates"):
            self._grid(configs=(("same", SMOKE), ("same", SMOKE)))

    def test_backend_aliases_count_as_duplicates(self):
        """'gpu' and 'cpu-gpu' are one implementation; with backend excluded
        from the seed derivation, listing both would double-count every
        trajectory."""
        with pytest.raises(ValueError, match="duplicates"):
            self._grid(backends=("gpu", "cpu-gpu"))
        with pytest.raises(ValueError, match="duplicates"):
            self._grid(backends=("gpu", "GPU"))

    def test_manifest_roundtrip_is_exact(self):
        grid = self._grid()
        assert Campaign.from_dict(grid.to_dict()) == grid
        manifest = grid.manifest()
        rebuilt = CampaignManifest.from_dict(manifest.to_dict())
        assert rebuilt.spec == grid
        assert [c.to_dict() for c in rebuilt.spec.cells()] == [
            c.to_dict() for c in grid.cells()
        ]

    def test_tampered_cell_table_rejected(self):
        payload = self._grid().manifest().to_dict()
        payload["cells"][3]["seed"] += 1
        with pytest.raises(ValueError, match="does not match its spec"):
            CampaignManifest.from_dict(payload)
        payload = self._grid().manifest().to_dict()
        payload["format_version"] = 999
        with pytest.raises(ValueError, match="format_version"):
            CampaignManifest.from_dict(payload)

    def test_cellspec_roundtrip(self):
        cell = self._grid().cell(7)
        assert CellSpec.from_dict(cell.to_dict()) == cell


class TestCellSeedDerivation:
    def test_deterministic(self):
        a = campaign_cell_seed(0, "1cex(40:51)", "small", 1)
        b = campaign_cell_seed(0, "1cex(40:51)", "small", 1)
        assert a == b

    def test_every_workload_axis_changes_the_seed(self):
        base = campaign_cell_seed(0, "t", "c", 0)
        assert campaign_cell_seed(1, "t", "c", 0) != base
        assert campaign_cell_seed(0, "u", "c", 0) != base
        assert campaign_cell_seed(0, "t", "d", 0) != base
        assert campaign_cell_seed(0, "t", "c", 1) != base

    def test_backend_axis_shares_the_seed(self):
        """Cells differing only in backend run the identical workload —
        that is what makes cross-backend timing comparisons paired."""
        grid = Campaign(
            campaign_id="paired",
            targets=("1cex(40:51)",),
            configs=(("only", SMOKE),),
            seeds=(0, 1),
            backends=("cpu", "gpu"),
        )
        by_coords = {}
        for cell in grid.cells():
            by_coords.setdefault((cell.target, cell.config_name, cell.seed_index), set()).add(
                cell.seed
            )
        for seeds in by_coords.values():
            assert len(seeds) == 1

    def test_negative_seeds_rejected_with_named_field(self):
        with pytest.raises(ValueError, match="campaign seeds must be >= 0"):
            Campaign(
                campaign_id="n",
                targets=("t",),
                configs=(("c", SMOKE),),
                seeds=(-1,),
            )
        with pytest.raises(ValueError, match="campaign base_seed must be >= 0"):
            Campaign(
                campaign_id="n",
                targets=("t",),
                configs=(("c", SMOKE),),
                base_seed=-3,
            )

    def test_seed_invariant_under_axis_reordering(self):
        """A cell's seed depends on its coordinates, not its flat index."""
        forward = Campaign(
            campaign_id="f",
            targets=("a1cex", "b1akz"),
            configs=(("x", SMOKE), ("y", SMOKE)),
            seeds=(0, 1),
            backends=("gpu", "cpu"),
        )
        reversed_axes = Campaign(
            campaign_id="f",
            targets=("b1akz", "a1cex"),
            configs=(("y", SMOKE), ("x", SMOKE)),
            seeds=(1, 0),
            backends=("cpu", "gpu"),
        )
        by_coords = {
            (c.target, c.config_name, c.seed_index, c.backend): c.seed
            for c in forward.cells()
        }
        for cell in reversed_axes.cells():
            key = (cell.target, cell.config_name, cell.seed_index, cell.backend)
            assert cell.seed == by_coords[key]

    def test_all_cell_seeds_distinct(self):
        grid = Campaign(
            campaign_id="d",
            targets=("1cex(40:51)",),
            configs=(("only", SMOKE),),
            seeds=tuple(range(64)),
            backends=("gpu",),
        )
        seeds = [c.seed for c in grid.cells()]
        assert len(set(seeds)) == len(seeds)


class TestCampaignBuilders:
    def test_builder_accepts_forgiving_axis_types(self):
        grid = campaign(
            "b",
            targets="1cex(40:51)",
            configs=SMOKE,
            seeds=3,
            backends="gpu",
        )
        assert grid.targets == ("1cex(40:51)",)
        assert grid.configs == (("default", SMOKE),)
        assert grid.seeds == (0, 1, 2)
        assert grid.backends == ("gpu",)

    def test_builder_accepts_config_field_dicts(self):
        grid = campaign(
            "b",
            targets="1cex(40:51)",
            configs={"tiny": {"population_size": 8, "n_complexes": 4}},
        )
        assert grid.configs[0][1].population_size == 8

    def test_builder_rejects_unknown_config_fields(self):
        with pytest.raises(ValueError, match="unknown sampling fields"):
            campaign("b", targets="t", configs={"c": {"population": 8}})

    def test_from_dict_schema(self):
        grid = campaign_from_dict(
            {
                "campaign": {
                    "id": "doc",
                    "targets": ["1cex(40:51)"],
                    "seeds": 2,
                    "backends": ["gpu"],
                    "base_seed": 7,
                },
                "configs": {"default": {"population_size": 16, "n_complexes": 4}},
            }
        )
        assert grid.campaign_id == "doc"
        assert grid.base_seed == 7
        assert grid.n_trajectories == 2

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown \\[campaign\\] keys"):
            campaign_from_dict(
                {
                    "campaign": {"id": "x", "targets": ["t"], "bogus": 1},
                    "configs": {"c": {}},
                }
            )

    def test_load_campaign_toml_and_json(self, tmp_path):
        body = {
            "campaign": {"id": "file", "targets": ["1cex(40:51)"], "seeds": 2},
            "configs": {"default": {"population_size": 16, "n_complexes": 4}},
        }
        json_path = tmp_path / "c.json"
        json_path.write_text(json.dumps(body))
        from_json = load_campaign(json_path)

        toml_path = tmp_path / "c.toml"
        toml_path.write_text(
            "\n".join(
                [
                    "[campaign]",
                    'id = "file"',
                    'targets = ["1cex(40:51)"]',
                    "seeds = 2",
                    "[configs.default]",
                    "population_size = 16",
                    "n_complexes = 4",
                ]
            )
        )
        pytest.importorskip("tomllib")
        assert load_campaign(toml_path) == from_json

    def test_retired_block_size_field_rejected(self, tmp_path):
        """The population block is fixed, not configuration: a campaign
        naming ``kernel_block_size`` is rejected as a dict and as TOML."""
        config = {"population_size": 16, "n_complexes": 4, "kernel_block_size": 128}
        with pytest.raises(ValueError, match="unknown sampling fields.*kernel_block_size"):
            campaign("b", targets="1cex(40:51)", configs={"c": config})
        toml_path = tmp_path / "c.toml"
        toml_path.write_text(
            "\n".join(
                [
                    "[campaign]",
                    'id = "file"',
                    'targets = ["1cex(40:51)"]',
                    "[configs.default]",
                    "population_size = 16",
                    "n_complexes = 4",
                    "kernel_block_size = 128",
                ]
            )
        )
        pytest.importorskip("tomllib")
        with pytest.raises(ValueError, match="unknown sampling fields.*kernel_block_size"):
            load_campaign(toml_path)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("temperature", 1.0),
            ("temperature_min", 0.05),
            ("temperature_max", 10.0),
            ("target_acceptance", 0.3),
            ("mutation_angles", 2),
            ("mutation_sigma", 0.5235987755982988),
            ("ccd_iterations", 30),
            ("require_closure", True),
        ],
    )
    def test_retired_sampling_field_rejected(self, tmp_path, name, value):
        """The schedule, mutation and CCD budget live in their callees'
        defaults and the gate is ``closure_tolerance_factor``: a campaign
        document naming a retired field is rejected as JSON and as TOML."""
        body = {
            "campaign": {"id": "file", "targets": ["1cex(40:51)"]},
            "configs": {"default": {"population_size": 16, "n_complexes": 4, name: value}},
        }
        json_path = tmp_path / "c.json"
        json_path.write_text(json.dumps(body))
        with pytest.raises(ValueError, match=f"unknown sampling fields.*{name}"):
            load_campaign(json_path)
        toml_path = tmp_path / "c.toml"
        toml_path.write_text(
            "\n".join(
                [
                    "[campaign]",
                    'id = "file"',
                    'targets = ["1cex(40:51)"]',
                    "[configs.default]",
                    "population_size = 16",
                    "n_complexes = 4",
                    f"{name} = {json.dumps(value)}",
                ]
            )
        )
        pytest.importorskip("tomllib")
        with pytest.raises(ValueError, match=f"unknown sampling fields.*{name}"):
            load_campaign(toml_path)

    def test_example_table_iv_document_loads(self):
        pytest.importorskip("tomllib")
        from pathlib import Path

        example = Path(__file__).resolve().parents[2] / "examples" / "table_iv.toml"
        grid = load_campaign(example)
        assert grid.campaign_id == "table-iv"
        assert len(grid.targets) >= 2
        assert grid.n_trajectories == len(grid.targets) * len(grid.seeds)


class TestExpandGrid:
    def test_row_major_product(self):
        cells = expand_grid(a=[1, 2], b=["x", "y"])
        assert cells == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]


class TestAdmission:
    """``Session._validate`` refuses cells a worker could only crash on."""

    def _grid(self, **config):
        fields = dict(population_size=16, n_complexes=4, iterations=2)
        fields.update(config)
        return campaign(
            "admit", "1cex(40:51)", {"c": SamplingConfig(**fields)},
            seeds=1, backends="gpu",
        )

    @pytest.mark.parametrize(
        "config",
        [
            dict(iterations=0),
            dict(population_size=16.0),
            dict(n_complexes=4.0),
            dict(iterations=2.5),
            dict(iterations=True),
        ],
    )
    def test_non_integer_or_non_positive_sizes_are_rejected(self, tmp_path, config):
        store = tmp_path / "store"
        with pytest.raises(CampaignError, match="positive integer"):
            Session(str(store)).submit(self._grid(**config))
        assert RunStore(str(store)).list_runs() == []

    def test_over_budget_cell_is_rejected_before_any_write(self, tmp_path, monkeypatch):
        import repro.api.session as session_module

        grid = self._grid()
        peak = session_module.cell_peak_bytes(16, 12)
        monkeypatch.setattr(session_module, "_memory_budget", lambda: peak - 1)
        store = tmp_path / "store"
        with pytest.raises(CampaignTooLarge, match="half of physical memory"):
            Session(str(store)).submit(grid)
        with pytest.raises(CampaignTooLarge):
            Session(str(store)).run(grid)
        assert RunStore(str(store)).list_runs() == []
        monkeypatch.setattr(session_module, "_memory_budget", lambda: peak)
        assert Session(str(store)).submit(grid).campaign_id == "admit"

    def test_budget_is_half_of_physical_memory(self):
        import os

        import repro.api.session as session_module

        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert session_module._memory_budget() == total // 2
        # A paper-scale cell (15,360 members, 12 residues) is ~160 MiB.
        assert session_module.cell_peak_bytes(15360, 12) < 2**28
