"""Synthetic Active Directory style attack graph generator.

Builds a tiered network of workstations, servers, users, groups, and
domain-admin groups connected by the three classic lateral-movement edge
kinds: a computer HasSession for a logged-on user, a user or group is
MemberOf a group, and a group or user is AdminTo a computer.

Workstations, regular users, and regular groups are dealt round robin into
organizational units, and ordinary churn (sessions, memberships, admin
rights) stays inside a unit.  Only unit 0, the IT department, administers
servers; servers host admin sessions, and admin groups chain into the DA
groups.  The rest of the network can move laterally forever without ever
touching a privileged credential, which mirrors how real directory graphs
leave most nodes with no path to DA.  One full escalation chain is always
wired in explicitly so every seed yields a playable game.

The shape is fixed: the module constants set every ratio and rate, and a
call chooses only the machine count and the seed.

Edges are created with zero probabilities and no blockable flags; both are
sampled later in the preparation pipeline.
"""
from __future__ import annotations

import math
import numpy as np

from .graph import (
    ADMIN_TO,
    AttackGraph,
    COMPUTER,
    DOMAIN_ADMIN,
    Edge,
    GROUP,
    GraphValidationError,
    HAS_SESSION,
    MEMBER_OF,
    Node,
    USER,
)


# Shape of every generated network.  Counts scale with ``n_computers``.
USERS_PER_COMPUTER = 1.8
GROUPS_PER_COMPUTER = 0.2
DA_GROUP_COUNT = 7
ORG_UNITS = 10
SERVER_FRACTION = 0.05
ADMIN_USER_FRACTION = 0.06
ADMIN_GROUP_FRACTION = 0.12
# a regular user joins between MEMBERSHIPS_LOW and MEMBERSHIPS_HIGH groups
MEMBERSHIPS_LOW = 1
MEMBERSHIPS_HIGH = 3
WORKSTATION_ADMIN_GROUPS = 2
# chances that one optional edge is drawn
GROUP_NESTING_RATE = 0.3
DA_MEMBERSHIP_RATE = 0.6
SERVER_ADMIN_RATE = 0.5
DIRECT_ADMIN_RATE = 0.08
WORKSTATION_SESSION_RATE = 0.85
SERVER_SESSION_RATE = 0.75
STRAY_ADMIN_SESSION_RATE = 0.1


def generate_synthetic(n_computers: int, seed: int) -> AttackGraph:
    """Generate a raw attack graph with ``n_computers`` machines.

    The result still has multiple DA candidate nodes, no entry nodes, zero
    edge probabilities, and no blockable flags; feed it through the
    preparation pipeline before playing.
    """
    if n_computers < 1:
        raise GraphValidationError("n_computers must be at least 1")
    rng = np.random.default_rng(seed)

    n_users = max(1, round(USERS_PER_COMPUTER * n_computers))
    n_groups = max(2, round(GROUPS_PER_COMPUTER * n_computers))
    n_servers = max(1, math.ceil(SERVER_FRACTION * n_computers))
    n_admin_users = max(1, math.ceil(ADMIN_USER_FRACTION * n_users))
    n_admin_groups = max(1, math.ceil(ADMIN_GROUP_FRACTION * n_groups))
    n_admin_groups = min(n_admin_groups, n_groups - 1) or 1

    computers = [f"c{i}" for i in range(n_computers)]
    servers = computers[:n_servers]
    workstations = computers[n_servers:] or computers
    users = [f"u{i}" for i in range(n_users)]
    admin_users = users[:n_admin_users]
    regular_users = users[n_admin_users:] or users
    groups = [f"g{i}" for i in range(n_groups)]
    admin_groups = groups[:n_admin_groups]
    regular_groups = groups[n_admin_groups:] or groups
    da_groups = [f"da{i}" for i in range(DA_GROUP_COUNT)]

    n_units = max(
        1,
        min(ORG_UNITS, len(workstations), len(regular_users), len(regular_groups)),
    )
    ws_unit = [workstations[k::n_units] for k in range(n_units)]
    user_unit = [regular_users[k::n_units] for k in range(n_units)]
    group_unit = [regular_groups[k::n_units] for k in range(n_units)]

    nodes = (
        [Node(c, COMPUTER) for c in computers]
        + [Node(u, USER) for u in users]
        + [Node(gr, GROUP) for gr in groups]
        + [Node(d, DOMAIN_ADMIN) for d in da_groups]
    )

    edges: list[Edge] = []
    seen: set[tuple[str, str, str]] = set()

    def add(src: str, dst: str, kind: str) -> None:
        key = (src, dst, kind)
        if src != dst and key not in seen:
            seen.add(key)
            edges.append(Edge(src, dst, kind))

    def pick(pool: list[str]) -> str:
        return pool[int(rng.integers(len(pool)))]

    # Guaranteed privilege-escalation backbone inside the IT unit, so every
    # seed yields a game: workstation session -> user -> group -> server ->
    # admin session -> admin group -> DA.
    add(ws_unit[0][0], user_unit[0][0], HAS_SESSION)
    add(user_unit[0][0], group_unit[0][0], MEMBER_OF)
    add(group_unit[0][0], servers[0], ADMIN_TO)
    add(servers[0], admin_users[0], HAS_SESSION)
    add(admin_users[0], admin_groups[0], MEMBER_OF)
    add(admin_groups[0], da_groups[0], MEMBER_OF)

    # Group memberships stay within the user's unit.
    for i, u in enumerate(regular_users):
        k = i % n_units
        n_member = int(rng.integers(MEMBERSHIPS_LOW, MEMBERSHIPS_HIGH + 1))
        for _ in range(n_member):
            add(u, pick(group_unit[k]), MEMBER_OF)
    for u in admin_users:
        n_member = int(rng.integers(1, 3))
        for _ in range(n_member):
            add(u, pick(admin_groups), MEMBER_OF)

    # Group nesting within each tier; admin groups chain into DA.
    for i, gr in enumerate(regular_groups[1:], start=1):
        if rng.random() < GROUP_NESTING_RATE:
            add(gr, pick(group_unit[i % n_units]), MEMBER_OF)
    for gr in admin_groups[1:]:
        if rng.random() < GROUP_NESTING_RATE:
            add(gr, pick(admin_groups), MEMBER_OF)
    for gr in admin_groups:
        if rng.random() < DA_MEMBERSHIP_RATE:
            add(gr, pick(da_groups), MEMBER_OF)

    # Administration rights.  Only IT-unit groups may administer servers.
    for i, c in enumerate(workstations):
        k = i % n_units
        for _ in range(WORKSTATION_ADMIN_GROUPS):
            add(pick(group_unit[k]), c, ADMIN_TO)
    for gr in admin_groups:
        n_adm = int(rng.integers(1, max(2, len(servers) // 2) + 1))
        for _ in range(n_adm):
            add(gr, pick(servers), ADMIN_TO)
    for gr in group_unit[0]:
        if rng.random() < SERVER_ADMIN_RATE:
            add(gr, pick(servers), ADMIN_TO)
    for i, u in enumerate(regular_users):
        if rng.random() < DIRECT_ADMIN_RATE:
            add(u, pick(ws_unit[i % n_units]), ADMIN_TO)

    # Logged-on sessions: compromising the machine yields the credentials.
    # Admins only ever log on to servers and IT-unit workstations.
    for i, c in enumerate(workstations):
        k = i % n_units
        if rng.random() < WORKSTATION_SESSION_RATE:
            add(c, pick(user_unit[k]), HAS_SESSION)
        if k == 0 and rng.random() < STRAY_ADMIN_SESSION_RATE:
            add(c, pick(admin_users), HAS_SESSION)
    for c in servers:
        if rng.random() < SERVER_SESSION_RATE:
            add(c, pick(admin_users), HAS_SESSION)

    g = AttackGraph(tuple(nodes), tuple(edges))
    g.validate()
    return g
