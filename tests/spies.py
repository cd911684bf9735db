"""The one call spy of the test modules.

Tier-1 checks that each layer does its work once by counting calls: one
2F1 per order, one quadrature per exact sequence, one incomplete beta per
grid.  spy wraps the function it counts and keeps its behaviour.
"""


def spy(mp, owner, name: str) -> list:
    """Wrap owner.<name> through the MonkeyPatch mp; returns its calls' (args, result) pairs.

    mp is the monkeypatch fixture or a pytest.MonkeyPatch.context(), so a
    Hypothesis test can spy too.  The list grows as the wrapper is called,
    in call order, and the patch ends with mp.
    """
    real = getattr(owner, name)
    calls = []

    def record(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    mp.setattr(owner, name, record)
    return calls
