"""Pure-Python polynomial kernel.

A polynomial is a dict mapping a monomial key to a nonzero int
coefficient.  A monomial key is a tuple of (variable, exponent) pairs,
sorted by variable id, with no zero exponents; the empty tuple is the
constant monomial.  These functions are the hot loops of the whole
engine.

The coefficients are the integer numerators that ``poly.MultiPoly``
hands over: it keeps the one common denominator itself, as FLINT's
fmpq_mpoly holds an integer polynomial with a rational content, and
clears the denominator of a rational substitution target before the
kernel sees it.  So the kernel only adds and multiplies ints, and
every result is an int dict.

Term dicts are never mutated after they are built: a function fills its
own fresh dict and hands it out, and neither the kernel nor its callers
write to a dict they received.  Results may therefore be an input dict
itself: a substitution that changes nothing returns its input, a sum
with an empty operand and a difference with an empty subtrahend return
the other operand, and a product by the constant 1 returns its other
operand.  For the same reason a compiled substitution may keep its
targets, the powers it builds from them and the image of every monomial
key it meets (its terms, with the untouched variables merged in) for as
long as it lives: applied again, it maps a key it has met by one pass
over that image, with no product and no key merge.

A compiled substitution may be held for the life of the process and
applied from several threads at once.  It fills its stores by
assignment only, each slot to a value that is a function of the slot's
key alone (the power e of a target is target^e, the image of a key is
that key's image): two threads that fill one slot at once compute equal
values, and whichever assignment lands last leaves it right.  Nothing is
appended or read back by position, and no lock is taken.
"""

from functools import partial


def merge_keys(ka, kb):
    """Multiply two monomials: merge sorted exponent lists, adding exponents."""
    if not ka:
        return kb
    if not kb:
        return ka
    # disjoint variable ranges: the sorted product is a concatenation
    if ka[-1][0] < kb[0][0]:
        return ka + kb
    if kb[-1][0] < ka[0][0]:
        return kb + ka
    out = []
    i = j = 0
    la, lb = len(ka), len(kb)
    while i < la and j < lb:
        va, ea = ka[i]
        vb, eb = kb[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append((va, ea))
            i += 1
        else:
            out.append((vb, eb))
            j += 1
    out.extend(ka[i:])
    out.extend(kb[j:])
    return tuple(out)


def add_terms(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for key, coeff in b.items():
        c = out.get(key)
        if c is None:
            out[key] = coeff
        else:
            c = c + coeff
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def sub_terms(a, b):
    """a - b in one pass, without negating b first."""
    if not b:
        return a
    out = dict(a)
    for key, coeff in b.items():
        c = out.get(key)
        if c is None:
            out[key] = -coeff
        else:
            c = c - coeff
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def scale_terms(a, coeff):
    if not coeff:
        return {}
    return {key: c * coeff for key, c in a.items()}


def mul_terms(a, b):
    if not a or not b:
        return {}
    if len(b) == 1 and b.get(()) == 1:
        return a
    if len(a) == 1 and a.get(()) == 1:
        return b
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = merge_keys(ka, kb)
            c = out.get(key)
            if c is None:
                out[key] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[key] = c
                else:
                    del out[key]
    return out


def pow_terms(a, n):
    """a**n by repeated squaring."""
    out = {(): 1}
    while n:
        if n & 1:
            out = mul_terms(out, a)
        n >>= 1
        if n:
            a = mul_terms(a, a)
    return out


def substitute_terms(terms, var, target):
    """Replace `var` by the polynomial `target`, fully expanded."""
    return _substitute({var: target}, {}, {}, terms)


def substitution(targets):
    """Replace every variable v in `targets` by the polynomial targets[v],
    all at once, fully expanded, compiled once for many polynomials: a
    function from a term dict to its image.  Targets may mention the
    substituted variables themselves (l1 -> l2 and l2 -> l1 swap them).

    Powers of each target, and the image of each monomial key met, are
    kept across every polynomial it is applied to; they depend on the
    targets alone.  A key met before costs one accumulation pass over its
    image and no product.
    """
    return partial(_substitute, dict(targets), {}, {})


def _substitute(targets, powers, images, terms):
    # `targets` maps each substituted variable to its target, `powers`
    # each (variable, exponent) met above 1 to that power of the target,
    # and `images` each key met to its image as (key, coefficient) pairs:
    # the product of the target powers of its substituted variables, with
    # the variables it leaves alone merged into every key.  The last two
    # grow as keys are met, by assignment only (see the thread rule
    # above).  A substitution that touches no key returns `terms` itself
    # (see the no-mutation invariant above).
    for key in terms:
        for v, _ in key:
            if v in targets:
                break
        else:
            continue
        break
    else:
        return terms
    out = {}
    for key, coeff in terms.items():
        image = images.get(key)
        if image is None:
            rest, prod = [], None
            for v, e in key:
                target = targets.get(v)
                if target is None:
                    rest.append((v, e))
                    continue
                power = target if e == 1 else powers.get((v, e))
                if power is None:
                    power = _power(target, powers, v, e)
                prod = power if prod is None else mul_terms(prod, power)
            if prod is None:
                image = ((key, 1),)
            else:
                rest = tuple(rest)
                image = [(merge_keys(rest, pk), pc) for pk, pc in prod.items()]
            images[key] = image
        for pk, pc in image:
            c = out.get(pk)
            if c is None:
                out[pk] = coeff * pc
            else:
                c = c + coeff * pc
                if c:
                    out[pk] = c
                else:
                    del out[pk]
    return out


def _power(target, powers, v, e):
    """target^e, the target of v: each power from the highest one built
    below e up to e is the one before it times the target, stored at
    (v, its exponent)."""
    k = e - 1
    while k > 1 and (v, k) not in powers:
        k -= 1
    power = target if k == 1 else powers[v, k]
    for k in range(k + 1, e + 1):
        power = powers[v, k] = mul_terms(power, target)
    return power
