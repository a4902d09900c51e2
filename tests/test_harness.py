"""Scenario parsing, paired trial runs, result files, and the CLI.

The scenario dict used here reproduces the shared small scene, so the
session map fixture can drive run_trials directly.
"""

import copy
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm import cli
from beamckm.codebook import layer_rows

import oracles
from conftest import toy_ckm
from oracles import steering_vector

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.json"
DEEP_CONFIG = DESK_CONFIG.with_name("deep.json")


def json_paths(node, path=()):
    """The key path of every node below ``node`` in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, path + (key,))


DESK = json.loads(DESK_CONFIG.read_text())
DESK_NODES = list(json_paths(DESK))
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.sampled_from(["inf", " -Infinity ", "nan", "1e3", "alg1"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def scenario_dict():
    return {
        "array": {
            "num_antennas": 16,
            "carrier_frequency_hz": 8e10,
            "bs_position": [8.0, -1.0],
        },
        "grid": {"extent_x": 16.0, "extent_y": 16.0, "spacing_x": 1.0, "spacing_y": 1.0},
        "environment": {
            "scatterers": [
                {"position": [2.0, 12.0], "reflection": 0.5},
                {"position": [14.0, 11.0], "reflection": 0.45},
            ],
            "obstacles": [{"start": [9.0, 7.0], "end": [13.0, 7.0]}],
            "max_paths": 4,
            "pathloss_exponent": 1.0,
            "rng_seed": 7,
        },
        "users": [
            {
                "subregions": [
                    {"prior": 0.5, "rect": [2.0, 2.0, 8.0, 3.0]},
                    {"prior": 0.5, "rect": [8.0, 12.0, 16.0, 13.0]},
                ]
            }
        ],
        "snr_db": ["inf", 10],
        "trials": 4,
        "seed": 3,
        "beta": 0.5,
        "eta": 0.9,
        "algorithms": ["alg1", "baseline-hier"],
        "name": "toy",
    }


class TestScenarioParsing:
    def test_full_round_trip(self):
        cfg = bc.scenario_from_dict(scenario_dict())
        assert cfg.array.num_antennas == 16
        assert cfg.array.bs_position == (8.0, -1.0)
        assert cfg.grid.nx == 16 and cfg.grid.ny == 16
        assert cfg.environment.scatterers[0].position == (2.0, 12.0)
        assert cfg.environment.obstacles[0].end == (13.0, 7.0)
        assert cfg.environment.rng_seed == 7
        assert cfg.snr_db == (math.inf, 10.0)
        assert cfg.trials == 4 and cfg.seed == 3 and cfg.name == "toy"
        assert cfg.algorithms == ("alg1", "baseline-hier")
        assert cfg.users[0].subregions[0].rect == (2.0, 2.0, 8.0, 3.0)

    def test_defaults_fill_in(self):
        d = scenario_dict()
        for key in ("trials", "seed", "beta", "eta", "algorithms", "name"):
            d.pop(key)
        cfg = bc.scenario_from_dict(d)
        assert cfg.trials == 1000 and cfg.seed == 0
        assert cfg.beta == 0.5 and cfg.eta == 0.9
        assert cfg.algorithms == bc.ALGORITHMS
        assert cfg.retain_beams is None

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.update(bogus=1), "scenario"),
            (lambda d: d["array"].update(gain=3), "array"),
            (lambda d: d["grid"].update(cells=2), "grid"),
            (lambda d: d["environment"].update(walls=[]), "environment"),
            (lambda d: d["environment"]["scatterers"][0].update(phase=0), "scatterers[0]"),
            (lambda d: d["environment"]["obstacles"][0].update(width=1), "obstacles[0]"),
            (lambda d: d["users"][0].update(id=7), "users[0]"),
            (
                lambda d: d["users"][0]["subregions"][0].update(shape="disc"),
                "subregions[0]",
            ),
        ],
    )
    def test_unknown_keys_rejected_everywhere(self, mutate, fragment):
        d = copy.deepcopy(scenario_dict())
        mutate(d)
        with pytest.raises(ValueError, match="unknown key"):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize("key", ["array", "grid", "environment", "users", "snr_db"])
    def test_missing_required_keys_rejected(self, key):
        d = scenario_dict()
        d.pop(key)
        with pytest.raises(ValueError, match="missing key"):
            bc.scenario_from_dict(d)

    def test_region_needs_exactly_one_shape(self):
        d = scenario_dict()
        d["users"][0]["subregions"][0]["points"] = [[3.0, 3.0]]
        with pytest.raises(ValueError, match="exactly one"):
            bc.scenario_from_dict(d)
        d2 = scenario_dict()
        del d2["users"][0]["subregions"][0]["rect"]
        with pytest.raises(ValueError, match="exactly one"):
            bc.scenario_from_dict(d2)

    def test_bad_snr_entry_rejected(self):
        d = scenario_dict()
        d["snr_db"] = ["loud"]
        with pytest.raises(ValueError, match=r"snr_db\[0\]"):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize("value", ["nan", "NaN", float("nan"), "-inf"])
    def test_non_numeric_snr_rejected(self, value):
        d = scenario_dict()
        d["snr_db"] = ["inf", value]
        with pytest.raises(ValueError, match="SNR"):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize("snrs", [[10, 10.0], ["inf", 0, "inf"]])
    def test_repeated_snr_rejected(self, snrs):
        d = scenario_dict()
        d["snr_db"] = snrs
        with pytest.raises(ValueError, match="must not repeat"):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize("value", [0.0, -0.5, 1.5, 2.0, float("nan")])
    def test_beta_outside_unit_interval_rejected(self, value):
        d = scenario_dict()
        d["beta"] = value
        with pytest.raises(ValueError, match="beta"):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5, float("nan")])
    def test_eta_outside_unit_interval_rejected(self, value):
        d = scenario_dict()
        d["eta"] = value
        with pytest.raises(ValueError, match="eta"):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("extent_x", float("nan"), "must be finite"),
            ("extent_y", "inf", "must be finite"),
            ("spacing_x", float("-inf"), "must be finite"),
            ("origin", [0.0, float("nan")], "must be finite"),
            ("spacing_x", 1e-310, "too many points"),
            ("spacing_y", 1e-310, "too many points"),
        ],
    )
    def test_non_finite_or_overflowing_grid_rejected(self, key, value, message):
        d = scenario_dict()
        d["grid"][key] = value
        with pytest.raises(ValueError, match=message):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("retain_beams", 0),
            ("seed", -1),
            ("array.num_antennas", 2),
            ("array.num_antennas", 32.9),
            ("array.num_antennas", 2**16),  # a map's u16 ids would write bottom index 65,536 as 0
            ("trials", 1.7),
            ("environment.max_paths", 2.5),
            ("algorithms", []),
            ("algorithms", ["alg1", "alg1"]),
            ("ckm_staleness_sigma", float("nan")),
            ("ckm_staleness_sigma", -1.0),
        ],
    )
    def test_inputs_that_cannot_run_rejected_at_load(self, path, value):
        # each loaded before, then failed in build_codebook or run_trials,
        # was truncated by int(), or ran with wrong records
        d = scenario_dict()
        *parents, key = path.split(".")
        target = d
        for name in parents:
            target = target[name]
        target[key] = value
        with pytest.raises(ValueError, match=key):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize(
        "path, value, field",
        [
            ("array.carrier_frequency_hz", float("nan"), "carrier_frequency_hz"),
            ("array.carrier_frequency_hz", float("inf"), "carrier_frequency_hz"),
            ("array.bs_position", [8.0, float("nan")], "bs_position"),
            ("array.bs_position", [8.0, -1.0, 0.0], "bs_position"),
            ("environment.scatterers.0.position", [float("nan"), 12.0], "scatterer position"),
            ("environment.scatterers.0.position", [8.0, -1.0], r"scatterers\[0\] position"),
            ("environment.pathloss_exponent", float("nan"), "pathloss_exponent"),
            ("environment.obstacles.0.end", [13.0, float("nan")], "obstacle end"),
            (
                "environment.scatterers.1.position",
                [8.0, -1.0],
                r"scatterers\[1\] position coincides with the BS position",
            ),
        ],
    )
    def test_bad_geometry_rejected_at_load(self, path, value, field):
        # each loaded before, then failed in build_ckm with a misleading
        # error or warning, or ran with the scatterer or wall ignored
        d = scenario_dict()
        *parents, key = path.split(".")
        target = d
        for name in parents:
            target = target[int(name)] if name.isdigit() else target[name]
        target[key] = value
        with pytest.raises(ValueError, match=field):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize(
        "shape, value",
        [
            ("points", [[3.0, 4.0, 99.0]]),
            ("points", [[float("nan"), 4.0]]),
            ("points", [[float("inf"), 4.0]]),
            ("points", [[3.0]]),
            ("rect", [8.0, 12.0, 16.0]),
            ("rect", [8.0, 12.0, 16.0, 13.0, 1.0]),
            ("rect", [8.0, float("nan"), 16.0, 13.0]),
        ],
    )
    def test_bad_region_geometry_rejected_at_load(self, shape, value):
        # before, a third point coordinate was silently dropped, and the
        # others failed in region_points with an error naming no region (a
        # NaN conversion, OverflowError, IndexError or bare unpacking error)
        d = scenario_dict()
        region = d["users"][0]["subregions"][1]
        del region["rect"]
        region[shape] = value
        with pytest.raises(ValueError, match=rf"users\[0\]\.subregions\[1\]: {shape}"):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize(
        "rect, message",
        [
            ([8.1, 12.1, 8.4, 12.4], "covers no grid point"),
            ([9.0, 12.0, 8.0, 13.0], "has negative extent"),
        ],
    )
    def test_region_errors_name_the_region(self, rect, message):
        d = scenario_dict()
        d["users"][0]["subregions"][1]["rect"] = rect
        with pytest.raises(ValueError, match=rf"^users\[0\]\.subregions\[1\]: rect .* {message}"):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize(
        "regions, message",
        [
            (lambda first: [], "prior must contain at least one subregion"),
            (lambda first: [first, first], "subregion priors sum to 2.0, expected 1"),
            (lambda first: [dict(first, prior=0.5)] * 2, "subregions overlap or repeat grid points"),
        ],
        ids=["empty", "priors-off", "overlap"],
    )
    def test_prior_errors_name_the_user(self, regions, message):
        d = json.loads(DESK_CONFIG.read_text())
        d["users"][1]["subregions"] = regions(d["users"][1]["subregions"][0])
        with pytest.raises(ValueError, match=rf"^users\[1\]: {message}"):
            bc.scenario_from_dict(d)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("beta", True, "beta must be a number, got True"),
            ("name", 5, "name must be a string, got 5"),
            ("algorithms", "alg1", "algorithms must be a list, got 'alg1'"),
            ("array.bs_position", 5, r"array\.bs_position must be a list, got 5"),
        ],
    )
    def test_wrong_json_types_rejected_with_their_path(self, key, value, message):
        # before, these loaded as 1.0, "5" and ("a", "l", "g", "1"), and the
        # last raised a bare TypeError
        d = scenario_dict()
        *parents, leaf = key.split(".")
        target = d
        for name in parents:
            target = target[name]
        target[leaf] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            bc.scenario_from_dict(d)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.sampled_from(DESK_NODES), JSON_VALUES)
    def test_any_one_node_replaced_loads_or_raises_value_error(self, path, value):
        d = copy.deepcopy(DESK)
        *parents, key = path
        target = d
        for name in parents:
            target = target[name]
        target[key] = value
        try:
            cfg = bc.scenario_from_dict(d)
        except ValueError:
            return
        assert isinstance(cfg, bc.ScenarioConfig)

    def test_negative_rng_seed_names_the_field(self):
        d = scenario_dict()
        d["environment"]["rng_seed"] = -1
        with pytest.raises(ValueError, match=r"^environment: rng_seed must be >= 0, got -1$"):
            bc.scenario_from_dict(d)

    def test_integral_numbers_accepted(self):
        d = scenario_dict()
        d["trials"] = 4.0
        d["array"]["num_antennas"] = 16.0
        cfg = bc.scenario_from_dict(d)
        assert (cfg.trials, cfg.array.num_antennas) == (4, 16)
        assert isinstance(cfg.trials, int)

    def test_unit_thresholds_accepted(self):
        d = scenario_dict()
        d["beta"] = 1.0
        d["eta"] = 1.0
        cfg = bc.scenario_from_dict(d)
        assert (cfg.beta, cfg.eta) == (1.0, 1.0)

    def test_direct_construction_validated(self):
        cfg = bc.scenario_from_dict(scenario_dict())
        with pytest.raises(ValueError, match="SNR"):
            dataclasses.replace(cfg, snr_db=(math.nan,))
        with pytest.raises(ValueError, match="beta"):
            dataclasses.replace(cfg, beta=0.0)
        with pytest.raises(ValueError, match="eta"):
            dataclasses.replace(cfg, eta=1.5)

    def test_unknown_algorithm_rejected(self):
        d = scenario_dict()
        d["algorithms"] = ["alg1", "alg9"]
        with pytest.raises(ValueError, match="alg9"):
            bc.scenario_from_dict(d)

    def test_degenerate_counts_rejected(self):
        d = scenario_dict()
        d["trials"] = 0
        with pytest.raises(ValueError):
            bc.scenario_from_dict(d)
        d2 = scenario_dict()
        d2["users"] = []
        with pytest.raises(ValueError):
            bc.scenario_from_dict(d2)
        d3 = scenario_dict()
        d3["snr_db"] = []
        with pytest.raises(ValueError):
            bc.scenario_from_dict(d3)

    def test_region_covering_no_grid_point_rejected(self, tmp_path):
        # rejected when the config is built, before any map is
        d = scenario_dict()
        d["users"][0]["subregions"][1]["rect"] = [8.1, 12.1, 8.4, 12.4]
        with pytest.raises(ValueError, match="covers no grid point"):
            bc.scenario_from_dict(d)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="covers no grid point"):
            bc.load_scenario(path)
        cfg = bc.scenario_from_dict(scenario_dict())
        moved = dataclasses.replace(cfg.grid, origin=(100.0, 100.0))
        with pytest.raises(ValueError, match="covers no grid point"):
            dataclasses.replace(cfg, grid=moved)

    def test_load_scenario_reads_json(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scenario_dict()))
        assert bc.load_scenario(path) == bc.scenario_from_dict(scenario_dict())


class TestRegions:
    def grid(self):
        return bc.GridSpec(extent_x=16.0, extent_y=16.0, spacing_x=1.0, spacing_y=1.0)

    def test_rect_selects_enclosed_centers(self):
        grid = self.grid()
        region = bc.RegionSpec(prior=1.0, rect=(2.0, 2.0, 8.0, 3.0))
        idx = bc.harness.region_points(grid, region)
        coords = grid.positions(np.arange(grid.num_points))
        inside = np.flatnonzero(
            (coords[:, 0] >= 2.0)
            & (coords[:, 0] <= 8.0)
            & (coords[:, 1] >= 2.0)
            & (coords[:, 1] <= 3.0)
        )
        np.testing.assert_array_equal(idx, inside)
        np.testing.assert_array_equal(idx, np.arange(34, 40))

    def test_rect_bounds_are_closed(self):
        grid = self.grid()
        exact = bc.RegionSpec(prior=1.0, rect=(2.5, 2.5, 2.5, 2.5))
        np.testing.assert_array_equal(bc.harness.region_points(grid, exact), [34])

    def test_degenerate_rects_rejected(self):
        grid = self.grid()
        with pytest.raises(ValueError, match="negative"):
            bc.harness.region_points(grid, bc.RegionSpec(prior=1.0, rect=(5.0, 5.0, 4.0, 6.0)))
        with pytest.raises(ValueError, match="covers no grid point"):
            bc.harness.region_points(grid, bc.RegionSpec(prior=1.0, rect=(2.1, 2.1, 2.4, 2.4)))

    def test_rect_ids_match_every_center_test(self):
        # an offset, non-square grid whose rects cut through rows and columns
        grid = bc.GridSpec(extent_x=7.0, extent_y=4.5, spacing_x=1.0, spacing_y=0.5, origin=(-3, 2))
        coords = grid.positions(np.arange(grid.num_points))
        for rect in [(-3.0, 2.0, 4.0, 6.5), (-1.2, 2.6, 1.5, 3.3), (0.5, 4.25, 0.5, 6.0)]:
            x0, y0, x1, y1 = rect
            inside = (
                (coords[:, 0] >= x0) & (coords[:, 0] <= x1)
                & (coords[:, 1] >= y0) & (coords[:, 1] <= y1)
            )
            idx = bc.harness.region_points(grid, bc.RegionSpec(prior=1.0, rect=rect))
            np.testing.assert_array_equal(idx, np.flatnonzero(inside))

    def test_rect_lookup_memory_follows_the_axes(self):
        # testing all 4e6 cell centers of this grid takes tens of MB
        grid = bc.GridSpec(extent_x=2000.0, extent_y=2000.0, spacing_x=1.0, spacing_y=1.0)
        region = bc.RegionSpec(prior=1.0, rect=(100.0, 200.0, 107.0, 207.0))
        tracemalloc.start()
        try:
            idx = bc.harness.region_points(grid, region)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        want = (np.arange(200, 207)[:, None] * 2000 + np.arange(100, 107)).ravel()
        np.testing.assert_array_equal(idx, want)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rect_ranges_equal_the_axis_tests(self, data):
        """The bisected column and row ranges cover exactly the cells whose
        centers pass the closed bound tests over both axes
        (``oracles.rect_axes``), on grids whose far origins collapse
        neighbouring centers onto one float, with rect edges on centers,
        one float off them, or anywhere."""
        sizes = [data.draw(st.floats(1e-3, 1e3)) for _ in range(2)]
        spacings = [data.draw(st.floats(e / 400, e * 2)) for e in sizes]
        origin = tuple(data.draw(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e15, -3e16])))
                       for _ in range(2))
        grid = bc.GridSpec(*sizes, *spacings, origin=origin)
        edges = []
        for axis, n in enumerate((grid.nx, grid.ny)):
            centers = grid.cell_center(np.arange(n), np.arange(n))[axis]
            lo, hi = float(centers[0]), float(centers[-1])
            edge = st.one_of(
                st.sampled_from(centers.tolist()),
                st.sampled_from(centers.tolist()).map(lambda c: float(np.nextafter(c, -np.inf))),
                st.sampled_from(centers.tolist()).map(lambda c: float(np.nextafter(c, np.inf))),
                st.floats(lo - abs(lo) - 1.0, hi + abs(hi) + 1.0),
            )
            edges.append(sorted(data.draw(edge) for _ in range(2)))
        rect = (edges[0][0], edges[1][0], edges[0][1], edges[1][1])
        want = oracles.rect_axes(grid, rect)
        if not (want[0].size and want[1].size):
            with pytest.raises(ValueError, match="covers no grid point"):
                bc.harness._rect_axes(grid, rect)
            return
        got = bc.harness._rect_axes(grid, rect)
        assert [list(r) for r in got] == [w.tolist() for w in want]
        region = bc.RegionSpec(prior=1.0, rect=rect)
        assert bc.harness._region_size(grid, region) == want[0].size * want[1].size
        ids = bc.harness.region_points(grid, region)
        assert ids.dtype == np.int64
        assert ids.tolist() == (want[1][:, None] * grid.nx + want[0]).ravel().tolist()

    def test_long_grid_loads_without_axis_arrays(self):
        """A 4e8 x 1-point grid fits a map record, and a scenario on it
        loads in well under a megabyte: no axis of cell centers is built
        (one would take 3.2 GB)."""
        d = scenario_dict()
        d["grid"]["extent_x"], d["grid"]["extent_y"] = 4e8, 1.0
        d["users"][0]["subregions"] = [{"prior": 0.5, "rect": [2.0, 0.0, 8.0, 1.0]},
                                       {"prior": 0.5, "rect": [3.9e8, 0.0, 3.9e8 + 7.0, 1.0]}]
        bc.scenario_from_dict(scenario_dict())  # numpy's lazy imports are not the grid's
        tracemalloc.start()
        try:
            cfg = bc.scenario_from_dict(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert cfg.grid.num_points == 400_000_000
        assert cfg.priors[0].points.tolist() == [*range(2, 8), *range(390_000_000, 390_000_007)]

    def test_points_snap_to_grid(self):
        grid = self.grid()
        region = bc.RegionSpec(prior=1.0, points=((12.0, 8.5), (12.9, 9.4)))
        np.testing.assert_array_equal(
            bc.harness.region_points(grid, region), [8 * 16 + 11, 9 * 16 + 12]
        )

    def test_bad_geometry_rejected_when_built(self):
        with pytest.raises(ValueError, match="rect must be four finite numbers"):
            bc.RegionSpec(prior=1.0, rect=(2.0, 2.0, 8.0))
        with pytest.raises(ValueError, match="rect must be four finite numbers"):
            bc.RegionSpec(prior=1.0, rect=(2.0, 2.0, math.inf, 3.0))
        with pytest.raises(ValueError, match=r"points\[1\] must be two finite coordinates"):
            bc.RegionSpec(prior=1.0, points=((12.0, 8.5), (12.0, math.nan)))

    def test_point_regions_load_as_coordinate_pairs(self):
        d = scenario_dict()
        region = d["users"][0]["subregions"][1]
        del region["rect"]
        region["points"] = [[12, 8.5], [12.9, 9.4]]
        cfg = bc.scenario_from_dict(d)
        assert cfg.users[0].subregions[1].points == ((12.0, 8.5), (12.9, 9.4))
        np.testing.assert_array_equal(cfg.priors[0].points[-2:], [139, 156])

    def test_user_prior_bounded_as_a_whole(self, monkeypatch):
        # the scenario's first user covers 6 + 8 grid points in two rects
        from beamckm import harness

        built = []
        region_points = harness.region_points

        def recorded(grid, region):
            built.append(region)
            return region_points(grid, region)

        monkeypatch.setattr(harness, "region_points", recorded)
        monkeypatch.setattr(harness, "MAX_REGION_POINTS", 10)
        whole = r"^users\[0\]: regions cover 14 grid points, more than 10$"
        with pytest.raises(ValueError, match=whole):
            bc.scenario_from_dict(scenario_dict())
        assert not built  # counted before any point id was built
        monkeypatch.setattr(harness, "MAX_REGION_POINTS", 7)
        one = r"^users\[0\]\.subregions\[1\]: rect .* covers 8 grid"
        with pytest.raises(ValueError, match=one):
            bc.scenario_from_dict(scenario_dict())
        monkeypatch.setattr(harness, "MAX_REGION_POINTS", 14)
        assert bc.scenario_from_dict(scenario_dict()).priors[0].points.size == 14
        assert len(built) == 2

    def test_duplicate_snapped_points_rejected(self):
        grid = self.grid()
        region = bc.RegionSpec(prior=1.0, points=((12.0, 8.5), (11.6, 8.4)))
        with pytest.raises(ValueError, match="duplicate"):
            bc.harness.region_points(grid, region)

    def test_fine_grid_loads_in_memory_of_its_covered_points(self):
        # 4.1e7 grid points, 1.6e6 of them in a prior: the priors hold
        # about 25 MB of int64 ids and float64 masses; a Python int per
        # covered point would take more
        d = copy.deepcopy(DESK)
        d["grid"]["spacing_x"] = 1e-4
        tracemalloc.start()
        try:
            cfg = bc.scenario_from_dict(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48_000_000
        assert sum(p.points.size for p in cfg.priors) == 1_560_000
        for prior in cfg.priors:
            assert prior.points.dtype == np.int64 and not prior.points.flags.writeable

    def test_region_covering_too_many_points_rejected(self):
        # 7e5 columns x 17 rows: about 1.2e7 covered points, whose ids and
        # masses alone would take 190 MB; the count is checked from the
        # per-axis ranges before any id array is built
        d = copy.deepcopy(DESK)
        d["grid"]["spacing_x"] = 1e-5
        d["users"] = [{"subregions": [{"prior": 1.0, "rect": [10.0, 38.0, 17.0, 55.0]}]}]
        with pytest.raises(
            ValueError, match=r"^users\[0\]\.subregions\[0\]: rect .* covers 11900\d\d\d grid points"
        ):
            bc.scenario_from_dict(d)

    def test_priors_follow_a_replaced_grid(self):
        cfg = bc.scenario_from_dict(scenario_dict())
        fine = dataclasses.replace(cfg, grid=bc.GridSpec(16.0, 16.0, 0.5, 0.5))
        assert cfg.priors[0].points.size == 14
        assert fine.priors[0].points.size == 4 * 14
        for c in (cfg, fine):
            centers = c.grid.positions(c.priors[0].points)
            # rects [2, 2, 8, 3] and [8, 12, 16, 13]
            low = centers[:, 1] <= 3.0
            assert ((centers[low] >= [2.0, 2.0]) & (centers[low] <= [8.0, 3.0])).all()
            assert ((centers[~low] >= [8.0, 12.0]) & (centers[~low] <= [16.0, 13.0])).all()
        np.testing.assert_allclose(fine.priors[0].masses.sum(), 1.0)

    def test_user_priors_masses(self):
        cfg = bc.scenario_from_dict(scenario_dict())
        priors = cfg.priors
        assert len(priors) == 1
        masses = priors[0].masses
        np.testing.assert_allclose(masses.sum(), 1.0)
        np.testing.assert_array_equal(
            priors[0].points, list(range(34, 40)) + list(range(200, 208))
        )
        np.testing.assert_allclose(masses[:6], 0.5 / 6)
        np.testing.assert_allclose(masses[6:], 0.5 / 8)


class TestNoiseScale:
    def test_reference_gain_is_median_best_gain(self):
        rng = np.random.default_rng(6)
        bottom = rng.uniform(0.0, 2.0, size=(9, 8))
        ckm = toy_ckm(bottom)
        expect = np.median(ckm.gains[layer_rows(ckm.num_layers)].max(axis=0).astype(np.float64))
        assert ckm.reference_gain == pytest.approx(expect)

    def test_reference_gain_skips_unreached_points(self):
        # six of nine points shadowed: the median over all of them would be 0
        bottom = np.zeros((9, 8))
        bottom[[1, 4, 7], 2] = [0.5, 1.0, 2.0]
        assert toy_ckm(bottom).reference_gain == pytest.approx(1.0)
        with pytest.raises(ValueError, match="positive gain"):
            toy_ckm(np.zeros((9, 8))).reference_gain

    def test_reference_gain_computed_once_per_map(self, monkeypatch):
        ckm = toy_ckm(np.random.default_rng(7).uniform(0.5, 2.0, size=(9, 8)))
        ref = ckm.reference_gain
        # a second read takes the kept value: the median is not taken again
        monkeypatch.setattr(np, "median", lambda *a, **k: pytest.fail("median recomputed"))
        assert ckm.reference_gain == ref

    def test_noise_std_follows_snr(self):
        assert bc.harness.noise_std_for_snr(0.0, 0.5) == pytest.approx(0.5)
        assert bc.harness.noise_std_for_snr(20.0, 0.5) == pytest.approx(0.05)
        assert bc.harness.noise_std_for_snr(-20.0, 0.5) == pytest.approx(5.0)
        assert bc.harness.noise_std_for_snr(math.inf, 0.5) == 0.0

    @pytest.mark.parametrize("snr_db, ref", [(-6200.0, 0.5), (-6170.0, 1.0), (-200.0, 1e300)])
    def test_snr_with_no_finite_noise_std_rejected(self, snr_db, ref):
        # 10 ** 310 and 10 ** 308.5 overflow a float; 1e300 * 1e10 is inf
        with pytest.raises(ValueError, match=f"SNR point {snr_db!r} dB"):
            bc.harness.noise_std_for_snr(snr_db, ref)


class TestBaselines:
    """The per-episode baselines, and the batched ones on the same channel."""

    def test_hierarchical_costs_two_per_layer(self, small_scene):
        cb = small_scene["codebook"]
        h = 0.7 * steering_vector(bc.codebook.bottom_angles(16)[4], 16)
        link = oracles.Link(bc.channel.Responses(h, cb), 0.0)
        chosen, overhead, rounds = oracles.baseline_hierarchical(link)
        batch = bc.channel.Episodes(bc.channel.Responses(h, cb), [0])
        beams, used = bc.harness.baseline_hierarchical(batch)
        assert beams == [chosen] and used.tolist() == [overhead]
        assert chosen == bc.BeamId(4, 5)
        assert overhead == 2 * 4
        assert [r.layer for r in rounds] == [1, 2, 3, 4]
        for r in rounds:
            assert len(r.probed) == 2 and r.probes == 2
            assert r.feedback in r.probed
        # descent stays inside the winning subtree
        for a, b in zip(rounds, rounds[1:]):
            assert b.probed == (2 * a.feedback - 1, 2 * a.feedback)

    def test_exhaustive_probes_everything_once(self, small_scene):
        cb = small_scene["codebook"]
        h = 0.7 * steering_vector(bc.codebook.bottom_angles(16)[11], 16)
        link = oracles.Link(bc.channel.Responses(h, cb), 0.0)
        chosen, overhead, rounds = oracles.baseline_exhaustive(link)
        batch = bc.channel.Episodes(bc.channel.Responses(h, cb), [0])
        beams, used = bc.harness.baseline_exhaustive(batch)
        assert beams == [chosen] and used.tolist() == [overhead]
        assert chosen == bc.BeamId(4, 12)
        assert overhead == 16
        assert rounds[0].probed == tuple(range(1, 17))


class TestRunTrials:
    def config(self, **over):
        d = scenario_dict()
        d.update(over)
        return bc.scenario_from_dict(d)

    def test_row_counts_and_pairing(self, small_scene):
        cfg = self.config(algorithms=["alg1", "baseline-exhaustive"], trials=3)
        records = bc.run_trials(cfg, small_scene["ckm"])
        assert len(records) == 3 * 2 * 2 * 1  # trials x snrs x algos x users
        # positions (hence oracles) are shared across algorithms and SNRs
        by_key = {}
        for r in records:
            by_key.setdefault((r.trial_id, r.user_id), set()).add(r.oracle)
        assert all(len(v) == 1 for v in by_key.values())

    def test_snr_so_high_its_gain_ratio_squared_overflows_runs(self, small_scene):
        # at 4000 dB sigma is not 0, but (g / sigma)^2 is past the float range;
        # the spectral efficiency is then 2 log2(g / sigma), about 1329 bit/s/Hz
        cfg = self.config(algorithms=["baseline-exhaustive"], trials=3)
        for r in bc.run_trials(cfg, small_scene["ckm"], snr_db=[4000.0]):
            assert 1300.0 < r.se_bps_hz < 1360.0

    def test_noiseless_hit_rates(self, small_scene):
        cfg = self.config(algorithms=["alg1", "baseline-exhaustive"], trials=10, snr_db=["inf"])
        records = bc.run_trials(cfg, small_scene["ckm"])
        for r in records:
            assert r.chosen == r.oracle
            assert r.gain_ratio_db == 0.0
            assert r.se_bps_hz == math.inf

    def test_exhaustive_overhead_and_hier_overhead(self, small_scene):
        cfg = self.config(algorithms=["baseline-hier", "baseline-exhaustive"], trials=2)
        for r in bc.run_trials(cfg, small_scene["ckm"]):
            assert r.overhead == (8.0 if r.algorithm == "baseline-hier" else 16.0)

    def test_joint_algorithm_shares_cost_equally(self, small_scene):
        d = scenario_dict()
        d["users"] = [
            {"subregions": [{"prior": 1.0, "rect": [2.0, 2.0, 6.0, 4.0]}]},
            {"subregions": [{"prior": 1.0, "rect": [10.0, 12.0, 14.0, 14.0]}]},
        ]
        d["algorithms"] = ["alg3"]
        d["snr_db"] = ["inf"]
        d["trials"] = 3
        cfg = bc.scenario_from_dict(d)
        records = bc.run_trials(cfg, small_scene["ckm"])
        assert len(records) == 3 * 2
        for t in range(3):
            rows = [r for r in records if r.trial_id == t]
            assert len(rows) == 2
            assert rows[0].overhead == rows[1].overhead
            total = rows[0].overhead * 2
            assert total == round(total)  # shares add back to whole probes

    @pytest.mark.parametrize("value", ["nan", math.nan, "-inf", -6200])
    def test_snr_override_rejected(self, small_scene, monkeypatch, value):
        from beamckm import harness

        # -6200 dB passes the sweep check, but its noise std overflows a
        # float: it too fails before any position is drawn
        monkeypatch.setattr(harness, "sample_true_position",
                            lambda *a: pytest.fail("positions drawn"))
        cfg = self.config(algorithms=["alg1"], trials=1)
        with pytest.raises(ValueError, match="SNR"):
            bc.run_trials(cfg, small_scene["ckm"], snr_db=[10, value])

    def test_repeated_snr_override_rejected(self, small_scene):
        # a repeat would merge into one summary group and double its overhead
        cfg = self.config(algorithms=["baseline-exhaustive"], trials=1)
        with pytest.raises(ValueError, match="must not repeat"):
            bc.run_trials(cfg, small_scene["ckm"], snr_db=[10.0, 10.0])

    def test_deterministic_for_fixed_seed(self, small_scene):
        cfg = self.config(trials=2)
        a = bc.run_trials(cfg, small_scene["ckm"])
        b = bc.run_trials(cfg, small_scene["ckm"])
        assert a == b
        c = bc.run_trials(cfg, small_scene["ckm"], seed=4)
        assert a != c

    def test_mismatched_map_rejected(self, small_scene):
        cfg = self.config()
        # 14 rows make a 3-layer, 8-antenna map, whatever array it came from
        wrong_n = bc.CkmGrid(cfg.grid, np.zeros((14, cfg.grid.num_points), dtype=np.float32))
        assert (wrong_n.num_layers, wrong_n.num_antennas) == (3, 8)
        with pytest.raises(ValueError, match="antenna"):
            bc.run_trials(cfg, wrong_n)
        wide = self.config(array={**scenario_dict()["array"], "num_antennas": 32})
        with pytest.raises(ValueError, match="antenna"):
            bc.run_trials(wide, wrong_n)
        wrong_grid = toy_ckm(np.ones((2, 16)))
        with pytest.raises(ValueError, match="grid"):
            bc.run_trials(cfg, wrong_grid)

    def test_unknown_algorithm_rejected(self, small_scene):
        cfg = self.config()
        with pytest.raises(ValueError, match="unknown algorithm"):
            bc.run_trials(cfg, small_scene["ckm"], algorithms=["alg7"])

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"algorithms": []}, "algorithms"),
            ({"algorithms": ["alg1", "alg1"]}, "algorithms"),
            ({"seed": -1}, "seed"),
            ({"seed": 2.5}, "seed"),
            ({"trials": 0}, "trials"),
            ({"trials": 1.7}, "trials"),
        ],
    )
    def test_overrides_that_cannot_run_rejected(self, small_scene, override, message):
        with pytest.raises(ValueError, match=message):
            bc.run_trials(self.config(), small_scene["ckm"], **override)

    def test_user_level_with_the_bs_runs(self):
        # cell centres at y = -1 sit level with the BS at (32, -1): the LoS
        # leaves at spatial angle exactly 1, which the map accepts, so the
        # trials must too
        cfg = bc.load_scenario(DESK_CONFIG)
        grid = dataclasses.replace(cfg.grid, origin=(0.0, -1.5))
        user = bc.UserSpec((bc.RegionSpec(prior=1.0, rect=(40.0, -1.0, 42.0, -1.0)),))
        cfg = dataclasses.replace(cfg, grid=grid, users=(user,), trials=3)
        ckm = bc.build_ckm(cfg.environment, cfg.array, bc.build_codebook(32), grid)
        records = bc.run_trials(cfg, ckm)
        assert len(records) == 3 * len(cfg.snr_db) * len(bc.ALGORITHMS)

    def test_snr_that_overflows_the_similarity_rejected(self, monkeypatch):
        # on desk, sigma is about 4e155 at -3200 dB: (64 sigma)^2 (2N - 2)
        # overflows, and alg3's norm of the probe magnitudes would too; at
        # -3100 dB every algorithm runs, warnings raised as errors
        from beamckm import harness

        cfg = dataclasses.replace(bc.load_scenario(DESK_CONFIG), trials=2)
        ckm = bc.build_ckm(cfg.environment, cfg.array, bc.build_codebook(32), cfg.grid)
        records = bc.run_trials(cfg, ckm, snr_db=[-3100.0])
        assert len(records) == 2 * len(cfg.users) * len(bc.ALGORITHMS)
        monkeypatch.setattr(harness, "sample_true_position",
                            lambda *a: pytest.fail("positions drawn"))
        with pytest.raises(ValueError, match=r"SNR point -3200\.0 dB is too low"):
            bc.run_trials(cfg, ckm, snr_db=[10.0, -3200.0])


def unreachable_band_config():
    """The small scene's grid with no scatterers and a wall along y = 8: no
    path reaches a cell centre above it.  User 1 lands there with prior 0.1."""
    d = scenario_dict()
    d["environment"] = {"obstacles": [{"start": [-1.0, 8.0], "end": [17.0, 8.0]}]}
    d["users"] = [
        {"subregions": [{"prior": 1.0, "rect": [2.0, 2.0, 8.0, 3.0]}]},
        {
            "subregions": [
                {"prior": 0.9, "rect": [2.0, 4.0, 14.0, 6.0]},
                {"prior": 0.1, "rect": [2.0, 10.0, 14.0, 12.0]},
            ]
        },
    ]
    d["trials"] = 30
    d["seed"] = 0
    return bc.scenario_from_dict(d)


class TestUnreachedPosition:
    def test_error_names_first_unreached_position_in_trial_order(self):
        cfg = unreachable_band_config()
        env, array, grid = cfg.environment, cfg.array, cfg.grid
        ckm = bc.build_ckm(env, array, bc.build_codebook(16), grid)
        # replay the draws: the first point no path reaches, in trial order
        unreached = []
        for t in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, 101, t])
            for prior in cfg.priors:
                p = bc.position.sample_true_position(prior, rng)
                try:
                    bc.channel.synthesize_channel(env, array, grid.positions([p])[0])
                except ValueError as exc:
                    unreached.append((p, str(exc)))
        assert len({p for p, _ in unreached}) > 1
        first_point, first_message = unreached[0]
        # trial order, not grid order, decides which point is named
        assert first_point != min(p for p, _ in unreached)
        assert "no propagation path reaches position" in first_message
        for algos in (["baseline-hier"], ["alg1", "alg3"]):
            with pytest.raises(ValueError) as exc:
                bc.run_trials(cfg, ckm, algorithms=algos)
            assert str(exc.value) == first_message


def record_weight_tables(monkeypatch):
    """Wrap compute_point_weights where the harness looks it up; returns
    the states it builds."""
    from beamckm import harness

    built = []
    original = harness.compute_point_weights

    def wrapped(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "compute_point_weights", wrapped)
    return built


def tree_states(state):
    """Every state cached in the views below ``state``."""
    for child in state.view.children.values():
        yield child
        yield from tree_states(child)


class TestSweepInvariants:
    """run_trials traces the channels of a sweep in one batch and builds each
    user's search state once; every episode starts from those states."""

    @staticmethod
    def config(retain_beams=None):
        d = scenario_dict()
        d["users"].append({"subregions": [{"prior": 1.0, "rect": [10.0, 12.0, 14.0, 14.0]}]})
        d["retain_beams"] = retain_beams
        return bc.scenario_from_dict(d)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        short=st.integers(1, 3),
        extra=st.integers(1, 3),
        snrs=st.lists(
            st.sampled_from(["inf", 20.0, 0.0, -15.0]), min_size=1, max_size=2, unique=True
        ),
        algos=st.lists(st.sampled_from(bc.ALGORITHMS), min_size=2, max_size=5, unique=True),
        retain=st.sampled_from([None, 1, 3]),
    )
    def test_runs_compose(self, small_scene, seed, short, extra, snrs, algos, retain):
        """A shorter run is the first rows of a longer one, and a run of
        several algorithms is the single-algorithm runs interleaved."""
        cfg = self.config(retain)
        run = functools.partial(bc.run_trials, cfg, small_scene["ckm"], seed=seed, snr_db=snrs)
        full = run(algorithms=algos, trials=short + extra)
        head = run(algorithms=algos, trials=short)
        assert head == full[: len(head)]
        assert all(r.trial_id < short for r in head)
        for algo in algos:
            alone = run(algorithms=[algo], trials=short + extra)
            assert alone == [r for r in full if r.algorithm == algo]

    @pytest.mark.parametrize("snrs", [(10.0, math.inf, -15.0), (math.inf, 0.0),
                                      (20.0, 0.0, math.inf), (0.0, 20.0)])
    def test_a_points_records_keep_to_its_index(self, small_scene, snrs):
        """A call runs one batch of every SNR point per chunk, the noisy
        points first, and slices each point's picks back: a point's records
        equal those of a sweep in which it keeps its index (its noise
        streams) and every other point differs, so the batch's layout
        differs too."""
        run = functools.partial(bc.run_trials, self.config(), small_scene["ckm"], trials=5, seed=11)
        full = run(snr_db=snrs)
        for i, snr in enumerate(snrs):
            others = iter(v for v in (math.inf, -5.0, 25.0, 3.0) if v not in snrs)
            moved = run(snr_db=[snr if j == i else next(others) for j in range(len(snrs))])
            assert [r for r in moved if r.snr_db == snr] == [r for r in full if r.snr_db == snr]

    def test_shared_tables_stay_in_their_initial_state(self, small_scene, monkeypatch):
        from beamckm import harness

        shared = record_weight_tables(monkeypatch)
        given = []

        def recorded(episode, users):
            def run(*args):
                given.extend(users(args))
                return episode(*args)

            return run

        def batch_users(args):  # the state each episode of the batch starts from
            states, batch = args[:2]
            return [states[e % len(states)] for e in range(len(batch.points))]

        for name in ("run_single_user", "run_lookahead", "run_multi_user"):
            monkeypatch.setattr(harness, name, recorded(getattr(harness, name), batch_users))
        cfg = self.config()
        trials, snrs = 12, ["inf", -15.0, -25.0]
        bc.run_trials(cfg, small_scene["ckm"], algorithms=["alg1", "alg2", "alg3"],
                      trials=trials, snr_db=snrs)
        assert len(shared) == len(cfg.users)
        assert len(given) == trials * len(snrs) * 3 * len(cfg.users)
        assert all(any(state is s for s in shared) for state in given)
        # the states the searches reached below them, where noise engaged the fallback
        reached = [(source, state) for source in shared for state in tree_states(source)]
        assert any(state.uniform_fallback for _, state in reached)
        for source, state in reached:
            for name in ("gains", "contrib"):
                ours, theirs = getattr(state, name), getattr(source, name)
                assert np.shares_memory(ours, theirs)
                assert not ours.flags.writeable
        for table in shared:
            assert table.point_alive.all() and table.beam_alive.all()
            assert table.root is None and not table.uniform_fallback

    def test_alg3_between_the_cached_searches_changes_no_record(self, small_scene):
        """alg3 folds observations into copies of the states whose cached
        trees alg1 and alg2 walk; every algorithm's records equal those of
        its own call."""
        cfg = self.config()
        run = functools.partial(
            bc.run_trials, cfg, small_scene["ckm"], trials=10, snr_db=["inf", 0.0, -15.0]
        )
        mixed = run(algorithms=("alg1", "alg3", "alg2"))
        for algo in ("alg1", "alg3", "alg2"):
            alone = run(algorithms=(algo,))
            assert alone == [r for r in mixed if r.algorithm == algo]

    def test_noiseless_points_seed_no_noise_generator(self, small_scene, monkeypatch):
        from beamckm import harness

        tables = []
        seed_words = harness.seed_words

        def recorded(head, counters):
            tables.append((list(head), np.asarray(counters).tolist()))
            return seed_words(head, counters)

        monkeypatch.setattr(harness, "seed_words", recorded)
        cfg = self.config()
        # [seed, 202, trial, SNR index, user]: only the 10 dB point seeds noise
        noisy = [[t, 1, k] for t in range(3) for k in range(len(cfg.users))]
        for snrs, want in ((["inf", 10.0], noisy), (["inf"], [])):
            tables.clear()
            bc.run_trials(cfg, small_scene["ckm"], algorithms=bc.ALGORITHMS, trials=3,
                          snr_db=snrs)
            noise = [row for head, rows in tables if head == [cfg.seed, 202] for row in rows]
            assert noise == want
            assert [head for head, _ in tables] == [[cfg.seed, 101], [cfg.seed, 202]]

    def test_noise_streams_are_seeded_one_chunk_at_a_time(self, small_scene, monkeypatch):
        """A chunk of ``CHUNK_TRIALS`` trials seeds only its own noise
        streams, and the records do not depend on the chunk size."""
        from beamckm import harness

        cfg = self.config()
        snrs = ["inf", 10.0, 0.0]
        run = functools.partial(bc.run_trials, cfg, small_scene["ckm"], algorithms=bc.ALGORITHMS,
                                trials=10, snr_db=snrs)
        want = run()
        rows = []
        seed_words = harness.seed_words

        def recorded(head, counters):
            if list(head) == [cfg.seed, 202]:
                rows.append(len(counters))
            return seed_words(head, counters)

        monkeypatch.setattr(harness, "seed_words", recorded)
        monkeypatch.setattr(harness, "CHUNK_TRIALS", 4)
        assert run() == want
        per_trial = 2 * len(cfg.users)  # the noisy SNR points' streams
        assert rows == [4 * per_trial, 4 * per_trial, 2 * per_trial]

    def test_streams_replay_default_rng_at_a_two_word_seed(self, small_scene, monkeypatch):
        """Positions come from default_rng([seed, 101, t]) and, in every
        algorithm, the probe noise of each noisy (trial, SNR index, user)
        episode, round by round, is consecutive slices from the start of
        default_rng([seed, 202, t, si, k]).standard_normal((M, 2)), also for
        a seed that numpy splits into two uint32 words: the five algorithms
        are common-random-number paired.  A noiseless episode reads none."""
        from beamckm import harness, multiuser, strategy

        seed, trials, snrs = 2**40, 4, ["inf", 10.0, 0.0]
        cfg = self.config()
        K, M = len(cfg.users), 4 * cfg.array.num_antennas
        drawn = []
        sample = harness.sample_true_position

        def sample_recorded(prior, rng):
            drawn.append(sample(prior, rng))
            return drawn[-1]

        # the rounds of an episode e of a batch, as (batch, e), each the
        # noise pairs it read; each algorithm's batches, in call order
        reads, batches_of = {}, {algo: [] for algo in bc.ALGORITHMS}
        probe_episodes = strategy.probe_episodes

        def probe_batch_recorded(batch, eps, rows):
            start = batch.used[eps]
            mags = probe_episodes(batch, eps, rows)
            assert (batch.used[eps] - start == rows.shape[-1]).all()
            for e, first in zip(eps.tolist(), start.tolist()):
                if e < len(batch.noise_std):
                    read = batch.block[e, first : first + rows.shape[-1]]
                    reads.setdefault((batch, e), []).append(np.array(read))
            return mags

        def episode_recorded(algo, episode):
            def run(*args, **kwargs):
                batch = next(a for a in args if isinstance(a, bc.channel.Episodes))
                batches_of[algo].append(batch)
                return episode(*args, **kwargs)

            return run

        monkeypatch.setattr(harness, "sample_true_position", sample_recorded)
        for module in (harness, multiuser, strategy):
            monkeypatch.setattr(module, "probe_episodes", probe_batch_recorded)
        for algo, name in (("alg1", "run_single_user"), ("alg2", "run_lookahead"),
                           ("alg3", "run_multi_user"), ("baseline-hier", "baseline_hierarchical"),
                           ("baseline-exhaustive", "baseline_exhaustive")):
            monkeypatch.setattr(harness, name, episode_recorded(algo, getattr(harness, name)))
        bc.run_trials(cfg, small_scene["ckm"], algorithms=bc.ALGORITHMS,
                      trials=trials, seed=seed, snr_db=snrs)
        replay = []
        for t in range(trials):
            rng = np.random.default_rng([seed, 101, t])
            replay += [bc.position.sample_true_position(prior, rng) for prior in cfg.priors]
        assert drawn == replay
        # per (trial, SNR index, user), in that order: the rounds' noise
        episodes = [(t, si, k) for t in range(trials) for si in range(len(snrs)) for k in range(K)]
        # one batch over every (SNR index, trial, user) episode, the noisy
        # SNR indices first
        at = {si: j * trials * K for j, si in enumerate([1, 2, 0])}
        got = {}
        for algo in bc.ALGORITHMS:
            (batch,) = batches_of[algo]
            assert len(batch.noise_std) == 2 * trials * K
            got[algo] = [reads.pop((batch, at[si] + t * K + k), []) for t, si, k in episodes]
        assert not reads
        for algo, per_episode in got.items():
            assert len(per_episode) == len(episodes), algo
            for (t, si, k), rounds in zip(episodes, per_episode):
                if si == 0:
                    assert rounds == [], algo
                    continue
                want = np.random.default_rng([seed, 202, t, si, k]).standard_normal((M, 2))
                read = np.concatenate([np.empty((0, 2)), *rounds])
                assert len(read) <= M and all(len(r) for r in rounds)
                np.testing.assert_array_equal(read, want[: len(read)], err_msg=algo)
            assert sum(map(len, per_episode)) > 0, algo

    def test_tables_built_only_for_map_aided_algorithms(self, small_scene, monkeypatch):
        built = record_weight_tables(monkeypatch)
        cfg = self.config()
        bc.run_trials(cfg, small_scene["ckm"], algorithms=["baseline-hier", "baseline-exhaustive"],
                      trials=2)
        assert not built
        bc.run_trials(cfg, small_scene["ckm"], algorithms=["alg2"], trials=2)
        assert len(built) == len(cfg.users)


class TestDeepConfig:
    """``configs/deep.json``, the large scene at 512 antennas (L = 9): a short
    sweep of every algorithm at planning depth."""

    def test_short_sweep_invariants(self):
        cfg = bc.load_scenario(DEEP_CONFIG)
        L, N = 9, 512
        assert cfg.array.num_antennas == N and cfg.algorithms == bc.ALGORITHMS
        ckm = bc.build_ckm(cfg.environment, cfg.array, bc.build_codebook(N), cfg.grid)
        records = bc.run_trials(cfg, ckm, trials=3, snr_db=["inf", 10, 0])
        assert len(records) == 3 * 3 * len(bc.ALGORITHMS) * len(cfg.users)
        assert all(r.chosen.layer == L and r.oracle.layer == L for r in records)
        for r in records:
            if r.algorithm == "baseline-hier":
                assert r.overhead == 2 * L
            elif r.algorithm == "baseline-exhaustive":
                assert r.overhead == N
                if r.snr_db == math.inf:
                    assert r.chosen == r.oracle


class TestResultsCsv:
    def test_round_trip(self, small_scene, tmp_path):
        d = scenario_dict()
        d["algorithms"] = ["alg1", "baseline-hier"]
        d["trials"] = 2
        cfg = bc.scenario_from_dict(d)
        records = bc.run_trials(cfg, small_scene["ckm"])
        path = tmp_path / "rows.csv"
        bc.write_results_csv(records, path)
        back = bc.read_results_csv(path)
        assert back == records

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("nope,header\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            bc.read_results_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param("0,alg1,10.0,0,3.0", "5 fields, expected 11", id="short-row"),
            pytest.param("0,alg1,10.0,0,x,4,2,4,2,0.0,5.0", "could not convert", id="not-a-number"),
        ],
    )
    def test_malformed_rows_rejected_with_line_number(self, tmp_path, row, message):
        path = tmp_path / "rows.csv"
        good = "0,alg1,10.0,0,3.0,4,2,4,2,0.0,5.0"
        path.write_text("\n".join([",".join(bc.harness.CSV_FIELDS), good, row, good]) + "\n")
        with pytest.raises(ValueError, match=f"line 3: {message}"):
            bc.read_results_csv(path)


def hand_records():
    B = bc.BeamId
    return [
        bc.TrialRecord(0, "alg1", 10.0, 0, 3.0, B(4, 2), B(4, 2), 0.0, 5.0),
        bc.TrialRecord(0, "alg1", 10.0, 1, 5.0, B(4, 7), B(4, 6), -2.0, 3.0),
        bc.TrialRecord(1, "alg1", 10.0, 0, 2.0, B(4, 2), B(4, 2), 0.0, 4.0),
        bc.TrialRecord(1, "alg1", 10.0, 1, 2.0, B(4, 6), B(4, 6), -1.0, 2.0),
    ]


class TestSummarize:
    def test_hand_computed_aggregates(self):
        stats, tables = bc.summarize(hand_records(), cdf_kinds=("overhead", "gain"))
        assert len(stats) == 1
        s = stats[0]
        assert (s["algorithm"], s["snr_db"]) == ("alg1", 10.0)
        assert s["trials"] == 2 and s["users"] == 2
        assert s["mean_overhead"] == pytest.approx(6.0)  # totals 8 and 4
        assert s["median_overhead"] == pytest.approx(6.0)
        assert s["hit_rate"] == pytest.approx(0.75)
        assert s["mean_gain_ratio_db"] == pytest.approx(-0.75)
        assert s["mean_se_bps_hz"] == pytest.approx(3.5)
        over = [(row["value"], row["cdf"]) for row in tables["overhead"]]
        assert over == [(4.0, 0.5), (8.0, 1.0)]
        gain = [(row["value"], row["cdf"]) for row in tables["gain"]]
        assert gain == [(-2.0, 0.25), (-1.0, 0.5), (0.0, 1.0)]

    def test_groups_sorted_by_algorithm_then_snr(self):
        recs = hand_records()
        extra = [
            bc.TrialRecord(0, "alg2", 5.0, 0, 4.0, bc.BeamId(4, 1), bc.BeamId(4, 1), 0.0, 1.0),
            bc.TrialRecord(0, "alg1", 5.0, 0, 4.0, bc.BeamId(4, 1), bc.BeamId(4, 1), 0.0, 1.0),
        ]
        stats, _ = bc.summarize(recs + extra)
        keys = [(s["algorithm"], s["snr_db"]) for s in stats]
        assert keys == [("alg1", 5.0), ("alg1", 10.0), ("alg2", 5.0)]

    def test_unknown_cdf_kind_rejected(self):
        with pytest.raises(ValueError, match="CDF"):
            bc.summarize(hand_records(), cdf_kinds=("latency",))

    def test_summary_files(self, tmp_path):
        stats, tables = bc.summarize(hand_records(), cdf_kinds=("overhead",))
        spath = tmp_path / "summary.csv"
        cpath = tmp_path / "cdf.csv"
        bc.write_summary_csv(stats, spath)
        bc.write_cdf_csv(tables["overhead"], cpath)
        lines = spath.read_text().strip().splitlines()
        assert lines[0].startswith("algorithm,snr_db,trials")
        assert len(lines) == 2
        clines = cpath.read_text().strip().splitlines()
        assert clines[0] == "algorithm,snr_db,value,cdf"
        assert len(clines) == 3


class TestCli:
    @pytest.mark.parametrize("bad", ["config", "truncated-ckm", "missing-file", "snr"])
    def test_bad_input_fails_in_one_line(self, tmp_path, capsys, bad):
        d = scenario_dict()
        cfg, ckm, out = (str(tmp_path / name) for name in ("scene.json", "scene.ckm", "out.csv"))
        Path(cfg).write_text(json.dumps(d))
        assert cli.main(["build-ckm", "--config", cfg, "--out", ckm]) == 0
        if bad == "config":
            d["array"]["carrier_frequency_hz"] = None
            Path(cfg).write_text(json.dumps(d))
            argv = ["build-ckm", "--config", cfg, "--out", ckm]
            named = "array.carrier_frequency_hz must be a number, got None"
        elif bad == "truncated-ckm":
            Path(ckm).write_bytes(Path(ckm).read_bytes()[:-7])
            argv = ["run", "--config", cfg, "--ckm", ckm, "--out", out]
            named = "payload length"
        elif bad == "snr":
            argv = ["run", "--config", cfg, "--ckm", ckm, "--snr-db", "-6200", "--out", out]
            named = "SNR point -6200.0 dB"
        else:
            argv = ["summarize", "--in", str(tmp_path / "none.csv"), "--out", out]
            named = "No such file"
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("beamckm: error: ") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_grid_no_map_holds_fails_in_one_line_under_a_memory_cap(self, tmp_path):
        """A 1e12 m grid at 1 m spacing is rejected as a grid before any axis
        is built (at 8 bytes a column that would be 7.28 TiB); the child
        process may map at most 1 GiB."""
        d = scenario_dict()
        d["grid"]["extent_x"] = 1e12
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(d))
        cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        run = "import sys; from beamckm import cli; sys.exit(cli.main(sys.argv[1:]))"
        argv = ["build-ckm", "--config", str(cfg), "--out", str(tmp_path / "scene.ckm")]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(bc.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", cap + run, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("beamckm: error: grid: ") and done.stderr.count("\n") == 1
        assert "too many points for a map (16000000000000)" in done.stderr

    def test_full_pipeline(self, tmp_path, capsys):
        cfg_path = tmp_path / "scene.json"
        cfg_path.write_text(json.dumps(scenario_dict()))
        ckm_path = tmp_path / "scene.ckm"
        res_path = tmp_path / "rows.csv"
        sum_path = tmp_path / "summary.csv"

        assert cli.main(["build-ckm", "--config", str(cfg_path), "--out", str(ckm_path)]) == 0
        ckm = bc.load_ckm(ckm_path.read_bytes())
        assert ckm.num_antennas == 16

        assert (
            cli.main(
                [
                    "run",
                    "--config", str(cfg_path),
                    "--ckm", str(ckm_path),
                    "--algo", "alg1,baseline-hier",
                    "--trials", "2",
                    "--snr-db", "inf,10",
                    "--out", str(res_path),
                ]
            )
            == 0
        )
        rows = bc.read_results_csv(res_path)
        assert len(rows) == 2 * 2 * 2
        assert {r.algorithm for r in rows} == {"alg1", "baseline-hier"}

        assert (
            cli.main(
                [
                    "summarize",
                    "--in", str(res_path),
                    "--out", str(sum_path),
                    "--cdf", "overhead,gain",
                ]
            )
            == 0
        )
        assert sum_path.exists()
        assert (tmp_path / "summary_cdf_overhead.csv").exists()
        assert (tmp_path / "summary_cdf_gain.csv").exists()
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_run_uses_config_defaults(self, tmp_path):
        d = scenario_dict()
        d["trials"] = 2
        d["snr_db"] = ["inf"]
        d["algorithms"] = ["baseline-exhaustive"]
        cfg_path = tmp_path / "scene.json"
        cfg_path.write_text(json.dumps(d))
        ckm_path = tmp_path / "scene.ckm"
        res_path = tmp_path / "rows.csv"
        cli.main(["build-ckm", "--config", str(cfg_path), "--out", str(ckm_path)])
        cli.main(
            ["run", "--config", str(cfg_path), "--ckm", str(ckm_path), "--out", str(res_path)]
        )
        rows = bc.read_results_csv(res_path)
        assert len(rows) == 2
        assert all(r.algorithm == "baseline-exhaustive" for r in rows)


@pytest.mark.parametrize("name", ["desk", "large", "deep"])
def test_oracle_gains_hold_the_per_point_bits(monkeypatch, name):
    """Every drawn point's bottom-beam gains in ``run_trials`` hold the bits
    of that point's products with the row blocks (128 blocks at N = 512),
    and the oracle beam is their first argmax, so a faster product (one
    stacked product for all points is one) must keep these bits."""
    from beamckm import harness

    config = bc.load_scenario(DESK_CONFIG.parent / f"{name}.json")
    book = bc.build_codebook(config.array.num_antennas)
    ckm = bc.build_ckm(config.environment, config.array, book, config.grid)
    channels, got = [], set()
    synthesize, finish = harness.synthesize_channel, harness._finish

    def synthesized(*args):
        channels.append(synthesize(*args))
        return channels[-1]

    def finished(*args):
        got.add((args[6], args[7].tobytes()))
        return finish(*args)

    monkeypatch.setattr(harness, "synthesize_channel", synthesized)
    monkeypatch.setattr(harness, "_finish", finished)
    bc.run_trials(config, ckm, algorithms=["baseline-hier"], trials=100, seed=3, snr_db=["inf"])
    L = ckm.num_layers
    blocks = np.split(book[layer_rows(L)], max(1, 2**L // max(4, 2048 // 2**L)))
    assert len(blocks) == {"desk": 1, "large": 8, "deep": 128}[name]
    per_point = [np.abs(np.concatenate([b @ hc for b in blocks])) for hc in np.conj(channels[0])]
    want = {(bc.BeamId(L, int(np.argmax(g)) + 1), g.tobytes()) for g in per_point}
    assert len(want) > 60 and got == want
