import sys

import pytest

from rootstrings import field
from rootstrings.selfcheck import field_for, find_irreducible


def _count_calls(monkeypatch, original):
    """Replace ``original`` in every rootstrings namespace by a counting wrapper."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "rootstrings" or name.startswith("rootstrings."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("p,degree,modulus", [
    (2, 2, (1, 1, 1)),
    (3, 2, (1, 0, 1)),
    (2, 3, (1, 0, 1, 1)),
    (5, 2, (1, 1, 1)),
    (3, 3, (1, 0, 2, 1)),
])
def test_each_candidate_modulus_tested_once(monkeypatch, p, degree, modulus):
    calls = _count_calls(monkeypatch, field.check_irreducible)
    # candidates run in lexicographic order, the constant term most significant
    tried = 1 + sum(c * p ** (degree - 1 - i) for i, c in enumerate(modulus[:-1]))
    assert field_for(p, degree).modulus == modulus
    assert len(calls) == tried
    assert find_irreducible(p, degree) == modulus
    assert len(calls) == 2 * tried


def test_find_irreducible_needs_degree_two():
    with pytest.raises(ValueError):
        find_irreducible(3, 1)
    with pytest.raises(ValueError):
        find_irreducible(4, 2)


def test_find_irreducible_beyond_field_spec_degrees():
    # FieldSpec stops at MAX_EXTENSION_DEGREE; the modulus search does not
    assert field.MAX_EXTENSION_DEGREE < 9
    assert find_irreducible(2, 9) == (1, 0, 0, 0, 0, 0, 0, 0, 1, 1)
    with pytest.raises(field.FieldSpecError) as excinfo:
        field_for(2, 9)
    assert excinfo.value.code == "bad-extension"
