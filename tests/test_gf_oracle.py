"""The field layer against a second, independent implementation: the
benchmark's own GF(p^k) arithmetic in ``bench/gf.py``, which decides
irreducibility by Rabin's test rather than Ben-Or's and reduces products by
its own division routine."""

import importlib.util
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootstrings.field import FieldSpec, check_irreducible
from rootstrings.selfcheck import field_for

ROOT = Path(__file__).resolve().parent.parent


def _load_gf():
    spec = importlib.util.spec_from_file_location("bench_gf", ROOT / "bench" / "gf.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gf = _load_gf()

#: Every prime below 10^4, or (about half the time) the first 13-digit prime
#: or the last.
primes = (st.sampled_from([p for p in range(10**4) if gf.is_prime(p)])
          | st.sampled_from([1000000000039, 9999999999971]))

# the 13-digit primes take tens of milliseconds per example
oracle_settings = settings(deadline=None, max_examples=60)


@st.composite
def monic(draw, p, k):
    """A monic polynomial of degree k over GF(p), low degree first: half the
    time an irreducible one drawn by ``gf.random_irreducible``, else uniform
    (and then almost always reducible for large k)."""
    if draw(st.booleans()):
        return gf.random_irreducible(random.Random(draw(st.integers(0, 2**32))), p, k)
    return tuple(draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))) + (1,)


@st.composite
def extension_fields(draw):
    p, k = draw(primes), draw(st.integers(2, 8))
    return FieldSpec(p, k, gf.random_irreducible(random.Random(draw(st.integers(0, 2**32))), p, k))


def residues(spec):
    p, k = spec.characteristic, spec.degree
    return st.lists(st.integers(0, p - 1), min_size=k, max_size=k)


def padded(coeffs, k):
    return tuple(coeffs) + (0,) * (k - len(coeffs))


@oracle_settings
@given(data=st.data(), p=primes, k=st.integers(2, 8))
def test_check_irreducible_agrees_with_rabin(data, p, k):
    f = data.draw(monic(p, k))
    assert check_irreducible(f, p) == gf.is_irreducible(list(f), p)


@pytest.mark.parametrize("p,k", [(7, 8), (13, 8), (1000000007, 2),
                                 (3317044064679887385961813, 2)])
def test_modulus_search_is_quick_and_irreducible(p, k):
    # the searches skip the p^(k - 1) candidates with constant term 0
    start = time.perf_counter()
    modulus = field_for(p, k).modulus
    assert time.perf_counter() - start < 1.0
    assert gf.is_irreducible(list(modulus), p)


@oracle_settings
@given(data=st.data(), spec=extension_fields())
def test_product_agrees_with_gf_mulmod(data, spec):
    a, b = data.draw(residues(spec)), data.draw(residues(spec))
    product = spec.element(a) * spec.element(b)
    assert product.coeffs == padded(gf._mulmod(a, b, spec.modulus, spec.characteristic),
                                    spec.degree)


@oracle_settings
@given(data=st.data(), spec=extension_fields())
def test_inverse_agrees_with_gf_fermat_power(data, spec):
    a = data.draw(residues(spec).filter(any))
    p, q = spec.characteristic, spec.order
    # a^(q - 2) = a^(-1) in the multiplicative group of order q - 1
    assert spec.element(a).inverse().coeffs == padded(gf._powmod(a, q - 2, spec.modulus, p),
                                                      spec.degree)


@oracle_settings
@given(data=st.data(), spec=extension_fields())
def test_power_agrees_with_gf_powmod(data, spec):
    a = data.draw(residues(spec))
    p, q = spec.characteristic, spec.order
    e = data.draw(st.integers(0, 3 * q))
    x = spec.element(a)
    assert (x**e).coeffs == padded(gf._powmod(a, e, spec.modulus, p), spec.degree)
    if x:
        assert x**-e * x**e == spec.one()
