"""Fixture: DET004 — iteration over set expressions (never imported)."""


def order(keys, other):
    out = []
    for key in set(keys):  # VIOLATION DET004
        out.append(key)
    for key in set(keys) | set(other):  # VIOLATION DET004
        out.append(key)
    vals = [g for g in {1, 2, 3}]  # VIOLATION DET004
    ok = [k for k in sorted(set(keys))]
    ok2 = list(sorted({x for x in keys}))
    for key in set(keys):  # repro: noqa[DET004]
        out.append(key)
    return out, vals, ok, ok2


def views(mine, theirs):
    out = []
    for key in mine.keys() | theirs.keys():  # VIOLATION DET004
        out.append(key)
    for key, value in mine.items() & theirs.items():  # VIOLATION DET004
        out.append(value)
    gone = [k for k in mine.keys() - theirs]  # VIOLATION DET004
    odd = {k: 1 for k in theirs ^ mine.keys()}  # VIOLATION DET004
    for key in (mine.keys() | theirs.keys()) - {0}:  # VIOLATION DET004
        out.append(key)
    ok = [k for k in sorted(mine.keys() | theirs.keys())]
    ok2 = [k for k in mine.keys()]
    ok3 = [v for _, v in mine.items()]
    for key in mine.keys() | theirs.keys():  # repro: noqa[DET004]
        out.append(key)
    return out, gone, odd, ok, ok2, ok3
