"""Kernel column products in the shapes the reference scorers return,
so the equivalence tests compare them with the references' dicts."""


def as_table(columns):
    """A ``(asns, values)`` score table as an ``{asn: value}`` dict in
    row order, holding the columns' ``.tolist()`` items."""
    asns, values = columns
    return dict(zip(asns.tolist(), values.tolist()))


def as_cones(pairs):
    """Distinct ``(holder, member)`` cone pairs as the reference's
    ``{holder: {members}}`` dict."""
    holders, members = pairs
    cones = {}
    for holder, member in zip(holders.tolist(), members.tolist()):
        cones.setdefault(holder, set()).add(member)
    return cones
