import pytest

from defaultlab import family


@pytest.fixture
def shifted_advance(monkeypatch):
    """Seeded defect: every solver step of the family pass lands 1e-9 high."""
    advance = family._advance

    def shifted(*args):
        image, fdy = advance(*args)
        return image + 1e-9, fdy

    monkeypatch.setattr(family, "_advance", shifted)
