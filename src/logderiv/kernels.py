"""Term-map kernels.

A polynomial is carried around the hot paths as a plain dict mapping an
exponent tuple to a nonzero Fraction.  These functions are the inner loops of
polynomial arithmetic and standard-basis reduction.
"""


def mono_div(a, b):
    """Exponent-wise difference a - b, or None if some entry would go negative."""
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def dict_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def dict_sub(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = -c
        else:
            s = s - c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def dict_scale(a, c):
    if not c:
        return {}
    return {m: c * v for m, v in a.items()}


def dict_mul(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m)
            if s is None:
                out[m] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def dict_axpy(h, c, shift, g):
    """Return h - c * x^shift * g; the reduction step of division/Mora loops."""
    out = dict(h)
    for m, v in g.items():
        key = tuple(x + y for x, y in zip(m, shift))
        s = out.get(key)
        cv = c * v
        if s is None:
            out[key] = -cv
        else:
            s = s - cv
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def vec_axpy(h, c, shift, g):
    """Module version of dict_axpy: keys are (component, exponent-tuple)."""
    out = dict(h)
    for (comp, m), v in g.items():
        key = (comp, tuple(x + y for x, y in zip(m, shift)))
        s = out.get(key)
        cv = c * v
        if s is None:
            out[key] = -cv
        else:
            s = s - cv
            if s:
                out[key] = s
            else:
                del out[key]
    return out
