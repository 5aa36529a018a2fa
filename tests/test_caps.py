"""Tests for the resource-cap configuration and enforcement."""

import pytest

from clonewt import caps as caps_module
from clonewt.caps import ENV_VAR, CapExceeded, Caps, default_caps, load_caps
from clonewt.filtration import Graph, automorphisms
from clonewt.rules import clique_partitions, maximal_cliques


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestCapDefaults:
    """The shipped defaults are generous but finite."""

    def test_default_values(self):
        caps = Caps()
        assert caps.cliques == 10**6
        assert caps.partition_vertices == 12
        assert caps.automorphism_vertices == 8
        assert caps.entropy_iterations == 10**5

    def test_caps_are_frozen(self):
        caps = Caps()
        with pytest.raises(AttributeError):
            caps.cliques = 5

    def test_default_caps_without_env_matches_constructor(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert default_caps() == Caps()


class TestLoadCaps:
    """Overrides arrive through a key=value,key=value string."""

    def test_single_override(self):
        caps = load_caps("cliques=500")
        assert caps.cliques == 500
        assert caps.partition_vertices == Caps().partition_vertices

    def test_multiple_overrides_with_whitespace(self):
        caps = load_caps(" cliques = 500 , automorphism_vertices = 9 ")
        assert caps.cliques == 500
        assert caps.automorphism_vertices == 9

    def test_empty_string_gives_defaults(self):
        assert load_caps("") == Caps()

    def test_environment_variable_is_consulted(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "partition_vertices=14")
        assert default_caps().partition_vertices == 14

    def test_a_changed_variable_takes_effect_at_the_next_call(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cliques=5")
        assert default_caps().cliques == 5
        monkeypatch.setenv(ENV_VAR, "cliques=7")
        assert default_caps().cliques == 7
        monkeypatch.setenv(ENV_VAR, "cliques=5")
        assert default_caps().cliques == 5
        monkeypatch.delenv(ENV_VAR)
        assert default_caps() == Caps()

    def test_a_malformed_variable_raises_on_every_call(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cliques=ten")
        for _ in range(3):
            with pytest.raises(ValueError, match="needs an integer"):
                default_caps()
        monkeypatch.setenv(ENV_VAR, "cliques=10")
        assert default_caps().cliques == 10

    def test_each_value_is_parsed_once(self, monkeypatch):
        parsed = []
        load = caps_module.load_caps
        monkeypatch.setattr(caps_module, "load_caps", lambda env: parsed.append(env) or load(env))
        monkeypatch.setenv(ENV_VAR, "cliques=424242")
        for _ in range(3):
            assert default_caps().cliques == 424242
        monkeypatch.setenv(ENV_VAR, "cliques=424243, partition_vertices=9")
        for _ in range(2):
            assert default_caps().partition_vertices == 9
        assert parsed == ["cliques=424242", "cliques=424243, partition_vertices=9"]

    @pytest.mark.parametrize(
        "bad",
        ["bogus_cap=3", "cliques", "cliques=ten", "cliques=0", "cliques=-1"],
    )
    def test_malformed_entries_raise(self, bad):
        with pytest.raises(ValueError):
            load_caps(bad)

    def test_unknown_key_message_lists_known_caps(self):
        with pytest.raises(ValueError, match="entropy_iterations"):
            load_caps("bogus_cap=3")


class TestCapEnforcement:
    """Exceeding a cap raises an error naming the knob to turn."""

    def test_automorphism_cap_names_itself(self):
        with pytest.raises(CapExceeded, match="automorphism_vertices"):
            automorphisms(path_graph(9))

    def test_cap_exceeded_mentions_environment_variable(self):
        with pytest.raises(CapExceeded, match=ENV_VAR):
            automorphisms(path_graph(9))

    def test_partition_cap_checked_before_iteration(self):
        with pytest.raises(CapExceeded, match="partition_vertices"):
            clique_partitions(path_graph(13))

    def test_clique_cap_raises_at_the_first_clique_past_it(self):
        # the complement of a perfect matching on 8 vertices has 2**4 maximal cliques
        g = Graph.from_edges(
            8, [(i, j) for i in range(8) for j in range(i + 1, 8) if j != i ^ 1]
        )
        assert len(maximal_cliques(g, cap=16).cliques) == 16
        for cap in range(1, 16):
            with pytest.raises(CapExceeded, match="cliques"):
                maximal_cliques(g, cap=cap)

    def test_raising_a_cap_unlocks_the_computation(self):
        perms = automorphisms(path_graph(9), cap=9)
        assert len(perms) == 2, (
            f"a 9-vertex path has exactly the identity and the reversal, "
            f"got {len(perms)} self-isometries"
        )
