import pytest

from tangoseg import Corpus, build_table, parse_annotation, parse_flat

FIGURE_GOLD = "[[data][base]][system]"

# prediction -> (word prec errors, word recall errors, morpheme prec errors,
#                morpheme recall errors, crossing, morpheme-dividing)
FIGURE_ROWS = {
    "|database|system|": (0, 0, 1, 2, 0, 0),
    "|data|base|system|": (2, 1, 0, 0, 0, 0),
    "|data|basesystem|": (2, 2, 1, 2, 1, 0),
    "|database|sys|tem|": (2, 1, 3, 3, 0, 2),
}


@pytest.fixture
def figure_gold():
    return parse_annotation(FIGURE_GOLD)


@pytest.fixture
def figure_pairs(figure_gold):
    return [(parse_flat(pred), figure_gold, expect) for pred, expect in FIGURE_ROWS.items()]


@pytest.fixture(scope="session")
def toy_table():
    """Counts over nine repetitions each of ABCD and WXYZ as separate lines."""
    corpus = Corpus(["ABCD"] * 9 + ["WXYZ"] * 9)
    return build_table(corpus, {2, 3, 4, 5, 6})


@pytest.fixture
def constructions(monkeypatch):
    """constructions(cls) counts the objects of a validating dataclass built
    from then on: the returned list gains each one as its __post_init__ runs."""

    def count(cls):
        built = []
        original = cls.__post_init__

        def counting(self):
            original(self)
            built.append(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
        return built

    return count
