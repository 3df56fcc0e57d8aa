"""The names code outside the package reaches into, pinned so that a
refactor cannot drop or rename one silently: each module's ``__all__``,
the CLI's per-kind map table (which a tracer may rebind) and the codec's
map functions looked up by name."""

from colorcomp import bell, cli, closedform, codec, compgen, verify
from colorcomp.closedform import KINDS, Family, count_family

PUBLIC = {
    bell: [
        "WeightSeq", "partial_bell", "partial_bell_table", "weighted_count_k",
        "weighted_count", "invert_transform", "hoggatt_lind_count",
    ],
    closedform: [
        "Family", "OnesAndM", "OneModM", "AtLeastM", "num_colors", "count_pd_k",
        "count_pd", "count_family",
    ],
    codec: [
        "unrank_word", "rank_word", "to_binary", "from_binary", "enum_words", "image_of_word",
        "word_of_image", "map_ones_m", "map_ones_m_inv", "map_mod_m", "map_mod_m_inv",
        "map_ge_m", "map_ge_m_inv",
    ],
    compgen: ["ColoredComposition", "enum_colored", "enum_family", "enum_weighted"],
    verify: [
        "CheckResult", "CheckReport", "check_counts", "check_phi", "check_bijections",
        "golden_tables",
    ],
}


def test_public_surface():
    for module, names in PUBLIC.items():
        assert module.__all__ == names, module.__name__
        assert all(callable(getattr(module, name)) for name in names)
    assert callable(cli.main) and callable(cli.build_parser)
    assert KINDS == ("ones", "mod", "ge")
    assert tuple(cli._MAPS) == KINDS
    for kind, (forward, inverse) in cli._MAPS.items():
        assert forward is getattr(codec, f"map_{kind}_m")
        assert inverse is getattr(codec, f"map_{kind}_m_inv")
    family = Family("ge", 3)
    assert (family.kind, family.m) == ("ge", 3)
    assert count_family(family, 11) == 13
