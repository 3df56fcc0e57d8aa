"""Exact counting, enumeration, and bijective codecs for colored integer
compositions."""

from .bell import (
    WeightSeq,
    hoggatt_lind_count,
    invert_transform,
    partial_bell,
    weighted_count,
    weighted_count_k,
)
from .closedform import (
    AtLeastM,
    Family,
    OneModM,
    OnesAndM,
    count_family,
    count_pd,
    count_pd_k,
    num_colors,
)
from .codec import (
    enum_words,
    from_binary,
    image_of_word,
    map_ge_m,
    map_ge_m_inv,
    map_mod_m,
    map_mod_m_inv,
    map_ones_m,
    map_ones_m_inv,
    rank_word,
    to_binary,
    unrank_word,
    word_of_image,
)
from .compgen import ColoredComposition, enum_colored, enum_family, enum_weighted
from .errors import ColorCompError, DomainError, InputError, InternalError
from .verify import CheckReport, check_bijections, check_counts, check_phi, golden_tables

__version__ = "0.1.0"
