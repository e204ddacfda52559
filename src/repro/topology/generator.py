"""Seeded generator of country-aware Internet worlds.

Builds an :class:`~repro.topology.world.World` whose structure mirrors
the market shapes the paper's case studies describe:

* a small clique of multinational tier-1 transit providers (US-heavy,
  as in Table 12), fully meshed by settlement-free peering;
* per country, an incumbent carrier — optionally split into separate
  international and domestic ASNs (the Telstra 4637/1221, NTT 2914/4713
  pattern §5) — regional transit providers, access/eyeball networks and
  stubs, with configurable incumbent dominance;
* a liberal-peering transit AS (the Hurricane Electric analogue, §5.4);
* global content ASes registered in the US but originating prefixes
  geolocated in many countries (the Amazon effect, §5.1.2);
* route collectors with vantage points, including multi-hop collectors
  whose VPs cannot be geolocated (Table 1's 21 % rejection);
* an address plan with cross-border prefixes so the 50 %-threshold
  geolocation (§3.2.1, Appendix B) has real work to do.

Everything is driven by a single ``random.Random(seed)``; the same seed
always yields byte-identical worlds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bgp.collectors import Collector, CollectorProject, CollectorSet
from repro.net.asn import is_public_asn
from repro.net.prefix import Prefix, format_address
from repro.topology.countries import CountryRegistry, default_registry
from repro.topology.model import ASGraph, ASNode, ASRole
from repro.topology.profiles import CountryProfile, default_profiles
from repro.topology.world import World

#: Continent → countries whose incumbents act as regional transit hubs
#: for minor countries (reproduces the regional patterns of Table 12).
_REGIONAL_HEGEMONS: dict[str, tuple[str, ...]] = {
    "North America": ("US",),
    "South America": ("ES", "US"),
    "Europe": ("SE", "DE", "NL"),
    "Africa": ("ZA", "MU", "FR", "GB", "IT"),
    "Asia": ("SG", "JP", "IN"),
    "Oceania": ("AU", "US"),
}


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """World-level generation parameters."""

    profiles: dict[str, CountryProfile] = field(default_factory=default_profiles)
    #: home registry countries of the clique members, one entry per member
    clique_homes: tuple[str, ...] = (
        "US", "US", "US", "US", "SE", "FR", "GB", "IT", "DE", "NL", "JP", "ES",
    )
    #: global content/cloud ASes (registered in the US)
    n_content: int = 2
    #: include the liberal-peering transit AS (Hurricane analogue)
    liberal_peer: bool = True
    #: probability an incumbent international AS peers with another one
    incumbent_peering_rate: float = 0.08
    #: probability a clique VP shows up at a large IXP collector
    clique_vp_rate: float = 0.4
    #: countries the content ASes originate prefixes in (when sized for it)
    content_presence_min_blocks: int = 6
    #: also originate a 6to4-style IPv6 twin (2002::/16 mapping) for
    #: every IPv4 origination, enabling family=6 pipeline runs
    ipv6: bool = False

    def __post_init__(self) -> None:
        if not self.clique_homes:
            raise ValueError("need at least one clique member")
        if self.n_content < 0:
            raise ValueError("n_content must be non-negative")


def generate_world(
    config: GeneratorConfig | None = None,
    seed: int = 0,
    countries: CountryRegistry | None = None,
    name: str = "generated",
) -> World:
    """Generate a world; deterministic for a given (config, seed)."""
    builder = _Builder(
        config or GeneratorConfig(),
        countries or default_registry(),
        random.Random(seed),
        name,
    )
    return builder.build()


@dataclass
class _CountryASes:
    """Handles to one country's generated ASes."""

    incumbent_international: int | None = None
    incumbent_domestic: int = 0
    transits: list[int] = field(default_factory=list)
    access: list[int] = field(default_factory=list)
    stubs: list[int] = field(default_factory=list)
    education: int | None = None
    route_server: int | None = None

    def all_operational(self) -> list[int]:
        """Every AS except the route server."""
        out = []
        if self.incumbent_international is not None:
            out.append(self.incumbent_international)
        out.append(self.incumbent_domestic)
        out.extend(self.transits)
        out.extend(self.access)
        out.extend(self.stubs)
        if self.education is not None:
            out.append(self.education)
        return out


class _Builder:
    """Stateful world construction (one-shot; build() once)."""

    def __init__(
        self,
        config: GeneratorConfig,
        countries: CountryRegistry,
        rng: random.Random,
        name: str,
    ) -> None:
        self.config = config
        self.countries = countries
        self.rng = rng
        self.name = name
        self.graph = ASGraph()
        self.collectors = CollectorSet()
        self.clique: list[int] = []
        self.liberal: int | None = None
        self.content: list[int] = []
        self.by_country: dict[str, _CountryASes] = {}
        self._next_asn = 1
        self._vp_ip_seq: dict[int, int] = {}
        self._country_base: dict[str, int] = {}
        self._country_next_block: dict[str, int] = {}
        for index, code in enumerate(sorted(self.config.profiles)):
            if code not in countries:
                raise ValueError(f"profile references unknown country {code}")
            self._country_base[code] = (index + 1) << 24
            self._country_next_block[code] = 0

    # -- public -----------------------------------------------------------

    def build(self) -> World:
        self._build_clique()
        self._build_global_players()
        for code in sorted(self.config.profiles):
            self._build_country(code, self.config.profiles[code])
        self._wire_minor_transit()
        self._wire_incumbent_peering()
        self._wire_global_player_edges()
        self._assign_addresses()
        if self.config.ipv6:
            self._mirror_ipv6()
        self._place_collectors()
        world = World(self.graph, self.countries, self.collectors, self.name)
        world.validate()
        return world

    # -- AS creation -------------------------------------------------------

    def _p2c(self, provider: int, customer: int) -> None:
        """Add a provider→customer edge unless the pair is already related."""
        if self.graph.relationship(provider, customer) is None:
            self.graph.add_p2c(provider, customer)

    def _p2p(self, left: int, right: int) -> None:
        """Add a peering edge unless the pair is already related."""
        if self.graph.relationship(left, right) is None:
            self.graph.add_p2p(left, right)

    def _new_as(self, name: str, country: str, role: ASRole) -> int:
        asn = self._next_asn
        while not is_public_asn(asn):
            asn += 1
        self._next_asn = asn + 1
        self.graph.add_as(asn, name, country, role)
        return asn

    def _build_clique(self) -> None:
        for index, home in enumerate(self.config.clique_homes, start=1):
            if home not in self.countries:
                raise ValueError(f"clique home {home} not in country registry")
            asn = self._new_as(f"Tier1-{home}-{index}", home, ASRole.CLIQUE)
            self.clique.append(asn)
        for left_index, left in enumerate(self.clique):
            for right in self.clique[left_index + 1 :]:
                self._p2p(left, right)

    def _build_global_players(self) -> None:
        if self.config.liberal_peer:
            self.liberal = self._new_as("LiberalPeer-US", "US", ASRole.TRANSIT)
            for member in self.clique:
                self._p2p(self.liberal, member)
        for index in range(1, self.config.n_content + 1):
            asn = self._new_as(f"Cloud-US-{index}", "US", ASRole.CONTENT)
            self.content.append(asn)
            for member in self.clique:
                self._p2p(asn, member)

    def _build_country(self, code: str, profile: CountryProfile) -> None:
        rng = self.rng
        handles = _CountryASes()
        self.by_country[code] = handles

        minor = self._is_minor(profile)
        if profile.incumbent_dual_as:
            handles.incumbent_international = self._new_as(
                f"Incumbent-Intl-{code}", code, ASRole.TRANSIT
            )
            handles.incumbent_domestic = self._new_as(
                f"Incumbent-Dom-{code}", code, ASRole.TRANSIT
            )
            self._p2c(
                handles.incumbent_international, handles.incumbent_domestic
            )
            for member in rng.sample(self.clique, k=min(2, len(self.clique))):
                self._p2c(member, handles.incumbent_international)
        else:
            handles.incumbent_domestic = self._new_as(
                f"Incumbent-{code}", code, ASRole.TRANSIT
            )
            if minor:
                # Minor countries reach the core mostly through a regional
                # hegemon (wired later); only sometimes buy clique transit.
                if rng.random() < 0.25:
                    self._p2c(rng.choice(self.clique), handles.incumbent_domestic)
            else:
                k = min(2 + (profile.n_transit > 2), len(self.clique))
                for member in rng.sample(self.clique, k=k):
                    self._p2c(member, handles.incumbent_domestic)

        entry_points = [
            handles.incumbent_international
            if handles.incumbent_international is not None
            else handles.incumbent_domestic
        ]
        for index in range(1, profile.n_transit + 1):
            transit = self._new_as(f"Transit-{code}-{index}", code, ASRole.TRANSIT)
            handles.transits.append(transit)
            # Every transit buys at least one upstream: the incumbent's
            # international arm, or (outside minor countries) the clique.
            if minor or rng.random() < 0.5:
                self._p2c(rng.choice(entry_points), transit)
            else:
                self._p2c(rng.choice(self.clique), transit)
            if not minor and rng.random() < 0.35:
                self._p2c(rng.choice(self.clique), transit)
        # Domestic transits peer among themselves at the local IXP.
        for left_index, left in enumerate(handles.transits):
            for right in handles.transits[left_index + 1 :]:
                if rng.random() < 0.3 and self.graph.relationship(left, right) is None:
                    self._p2p(left, right)
            if (rng.random() < 0.4
                    and self.graph.relationship(left, handles.incumbent_domestic) is None):
                self._p2p(left, handles.incumbent_domestic)

        providers_pool = [handles.incumbent_domestic] + handles.transits
        for index in range(1, profile.n_access + 1):
            access = self._new_as(f"Access-{code}-{index}", code, ASRole.ACCESS)
            handles.access.append(access)
            self._p2c(self._pick_provider(profile, providers_pool), access)
            if rng.random() < 0.3:
                second = self._pick_provider(profile, providers_pool, exclude=access)
                if self.graph.relationship(second, access) is None:
                    self._p2c(second, access)

        low, high = profile.stub_multihoming
        for index in range(1, profile.n_stub + 1):
            stub = self._new_as(f"Stub-{code}-{index}", code, ASRole.STUB)
            handles.stubs.append(stub)
            count = rng.randint(low, high)
            for _ in range(count):
                provider = self._pick_provider(profile, providers_pool, exclude=stub)
                if self.graph.relationship(provider, stub) is None:
                    self._p2c(provider, stub)

        if profile.has_education:
            education = self._new_as(f"NREN-{code}", code, ASRole.EDUCATION)
            handles.education = education
            self._p2c(handles.incumbent_domestic, education)

        if profile.has_route_server:
            handles.route_server = self._new_as(
                f"IXP-RS-{code}", code, ASRole.ROUTE_SERVER
            )

    def _pick_provider(
        self,
        profile: CountryProfile,
        pool: list[int],
        exclude: int | None = None,
    ) -> int:
        """Incumbent with probability ``incumbent_dominance``, else a
        uniformly random domestic transit."""
        incumbent = pool[0]
        if self.rng.random() < profile.incumbent_dominance:
            choice = incumbent
        else:
            choice = self.rng.choice(pool[1:]) if len(pool) > 1 else incumbent
        if choice == exclude and len(pool) > 1:
            choice = self.rng.choice([asn for asn in pool if asn != exclude])
        return choice

    # -- cross-country wiring ------------------------------------------------

    def _international_entry(self, code: str) -> int:
        handles = self.by_country[code]
        if handles.incumbent_international is not None:
            return handles.incumbent_international
        return handles.incumbent_domestic

    @staticmethod
    def _is_minor(profile: CountryProfile) -> bool:
        """Minor countries have no VPs and only a handful of ASes."""
        return profile.n_vps == 0 and profile.total_ases() <= 12

    def _wire_minor_transit(self) -> None:
        """Minor-country incumbents buy from regional hegemons.

        The cross-border partner hint wins (former-Soviet countries buy
        from Russia); otherwise a continent-level hegemon is used, and a
        clique member is the last resort so nothing ends up stranded.
        """
        for code in sorted(self.config.profiles):
            profile = self.config.profiles[code]
            if not self._is_minor(profile):
                continue
            incumbent = self.by_country[code].incumbent_domestic
            partner = profile.cross_border_partner
            if partner is not None and partner in self.by_country and partner != code:
                self._p2c(self._international_entry(partner), incumbent)
                continue
            continent = self.countries.get(code).continent
            hegemons = [
                hegemon
                for hegemon in _REGIONAL_HEGEMONS.get(continent, ())
                if hegemon in self.by_country and hegemon != code
            ]
            if hegemons:
                hegemon = self.rng.choice(hegemons)
                self._p2c(self._international_entry(hegemon), incumbent)
            elif not self.graph.providers_of(incumbent):
                self._p2c(self.rng.choice(self.clique), incumbent)

    def _wire_incumbent_peering(self) -> None:
        entries = [self._international_entry(code) for code in sorted(self.by_country)]
        for left_index, left in enumerate(entries):
            for right in entries[left_index + 1 :]:
                if self.rng.random() < self.config.incumbent_peering_rate:
                    if self.graph.relationship(left, right) is None:
                        self._p2p(left, right)

    def _wire_global_player_edges(self) -> None:
        rng = self.rng
        for code in sorted(self.by_country):
            entry = self._international_entry(code)
            handles = self.by_country[code]
            if self.liberal is not None:
                if rng.random() < 0.6 and self.graph.relationship(
                    self.liberal, entry
                ) is None:
                    self._p2p(self.liberal, entry)
                for transit in handles.transits:
                    if rng.random() < 0.2:
                        self._p2c(self.liberal, transit)
            for content in self.content:
                if rng.random() < 0.5 and self.graph.relationship(
                    content, entry
                ) is None:
                    self._p2p(content, entry)
        # NRENs peer with each other (research backbone mesh).
        nrens = [
            handles.education
            for handles in self.by_country.values()
            if handles.education is not None
        ]
        for left_index, left in enumerate(sorted(nrens)):
            for right in sorted(nrens)[left_index + 1 :]:
                self._p2p(left, right)

    # -- address plan ----------------------------------------------------------

    def _take_block(self, code: str) -> Prefix | None:
        """The next unallocated /16 in the country pool, if any."""
        profile = self.config.profiles[code]
        index = self._country_next_block[code]
        if index >= profile.address_blocks:
            return None
        self._country_next_block[code] = index + 1
        value = self._country_base[code] + (index << 16)
        return Prefix(4, value, 16)

    def _maybe_cross_border(self, code: str) -> tuple[float, str | None]:
        profile = self.config.profiles[code]
        if self.rng.random() >= profile.cross_border_rate:
            return 0.0, None
        partner = profile.cross_border_partner
        if partner is None:
            others = [c for c in sorted(self.by_country) if c != code]
            partner = self.rng.choice(others)
        return profile.cross_border_share, partner

    def _originate(self, asn: int, prefix: Prefix, code: str) -> None:
        share, partner = self._maybe_cross_border(code)
        self.graph.node(asn).originate(prefix, code, share, partner)

    def _assign_addresses(self) -> None:
        self._assign_global_player_addresses()
        for code in sorted(self.by_country):
            self._assign_country_addresses(code)

    def _assign_global_player_addresses(self) -> None:
        """Clique, liberal-peer, and content ASes originate their own
        space in a dedicated region (200.0.0.0 upward), geolocated to
        their home registry country."""
        players = list(self.clique)
        if self.liberal is not None:
            players.append(self.liberal)
        players.extend(self.content)
        for index, asn in enumerate(players):
            node = self.graph.node(asn)
            home = node.registry_country
            prefix = Prefix(4, (200 + index) << 24, 16)
            node.originate(prefix, home)

    def _assign_country_addresses(self, code: str) -> None:
        profile = self.config.profiles[code]
        handles = self.by_country[code]
        incumbent = handles.incumbent_domestic

        # Reserve the first block for infrastructure /24s, so every AS —
        # including transit ASes in small countries — originates space
        # and can host a vantage point.
        infra_block = self._take_block(code)
        assert infra_block is not None, f"{code} has zero address blocks"
        infra_pool = iter(infra_block.subnets(24))

        # Incumbent's flagship block; also announced as two /17
        # more-specifics so the covered-prefix filter has work to do.
        block = self._take_block(code)
        if block is not None:
            self._originate(incumbent, block, code)
            if profile.address_blocks >= 4:
                for half in block.split():
                    self._originate(incumbent, half, code)

        # Access networks share blocks as /17s — the eyeball space.
        halves: list[Prefix] = []
        for access in handles.access:
            if not halves:
                block = self._take_block(code)
                if block is None:
                    break
                halves = list(block.split())
            self._originate(access, halves.pop(0), code)

        # Stubs get /20s carved out of shared blocks.
        slices: list[Prefix] = []
        for stub in handles.stubs:
            if not slices:
                block = self._take_block(code)
                if block is None:
                    break
                slices = block.subnets(20)
            self._originate(stub, slices.pop(0), code)

        for transit in handles.transits:
            block = self._take_block(code)
            if block is None:
                break
            self._originate(transit, block, code)

        if handles.education is not None:
            block = self._take_block(code)
            if block is not None:
                self._originate(handles.education, block, code)

        # Global content presence: a /18 geolocated here, registered US.
        if (
            self.content
            and profile.address_blocks >= self.config.content_presence_min_blocks
        ):
            block = self._take_block(code)
            if block is not None:
                pieces = block.subnets(18)
                for content, piece in zip(self.content, pieces):
                    self.graph.node(content).originate(piece, code)

        # Whatever remains goes to the incumbent.
        while True:
            block = self._take_block(code)
            if block is None:
                break
            self._originate(incumbent, block, code)

        # Finally, give every still-empty AS an infrastructure /24.
        for asn in handles.all_operational():
            if not self.graph.node(asn).prefixes:
                piece = next(infra_pool, None)
                if piece is None:
                    break
                self._originate(asn, piece, code)

    def _mirror_ipv6(self) -> None:
        """Give every IPv4 origination a 6to4-style IPv6 twin.

        The 2002::/16 mapping embeds the IPv4 network in bits 16–48 of
        the IPv6 prefix, so the twin inherits the v4 plan's geography
        exactly — the family=6 pipeline then ranks a structurally
        identical but separately-measured universe, as IHR does.
        """
        for node in self.graph.nodes():
            twins = []
            for record in node.prefixes:
                v4 = record.prefix
                if v4.version != 4:
                    continue
                value = (0x2002 << 112) | (v4.value << 80)
                twins.append((
                    Prefix(6, value, v4.length + 16),
                    record.country,
                    record.foreign_share,
                    record.foreign_country,
                ))
            for prefix, country, share, foreign in twins:
                node.originate(prefix, country, share, foreign)

    # -- collectors --------------------------------------------------------------

    def _vp_ip(self, asn: int) -> str:
        """A unique VP IP inside the AS's first originated prefix."""
        node = self.graph.node(asn)
        if not node.prefixes:
            raise ValueError(f"AS{asn} has no prefix to host a VP")
        base = node.prefixes[0].prefix.first_address()
        sequence = self._vp_ip_seq.get(asn, 0) + 1
        self._vp_ip_seq[asn] = sequence
        return format_address(4, base + 10 + sequence)

    def _vp_member_pool(self, code: str) -> list[int]:
        handles = self.by_country[code]
        pool = handles.all_operational()
        return [asn for asn in pool if self.graph.node(asn).prefixes]

    def _place_collectors(self) -> None:
        rng = self.rng
        all_codes = sorted(
            code for code in self.by_country if self.config.profiles[code].n_vps > 0
        )
        for code in all_codes:
            profile = self.config.profiles[code]
            collectors: list[Collector] = []
            for index in range(1, profile.n_collectors + 1):
                project = (
                    CollectorProject.ROUTEVIEWS if index % 2 else CollectorProject.RIS
                )
                multihop = profile.has_multihop_collector and index == profile.n_collectors
                collector = Collector(
                    name=f"{code.lower()}-ix-{index}",
                    project=project,
                    country=code,
                    multihop=multihop,
                )
                self.collectors.add(collector)
                collectors.append(collector)
            local = [c for c in collectors if not c.multihop]
            remote = [c for c in collectors if c.multihop]
            self._attach_local_vps(code, profile, local)
            for collector in remote:
                self._attach_multihop_vps(collector)

    def _attach_local_vps(
        self, code: str, profile: CountryProfile, collectors: list[Collector]
    ) -> None:
        if not collectors or profile.n_vps == 0:
            return
        rng = self.rng
        pool = self._vp_member_pool(code)
        # Large IXPs attract multinational members too.
        if profile.n_vps >= 20:
            for member in self.clique:
                if rng.random() < self.config.clique_vp_rate:
                    pool.append(member)
            if self.liberal is not None and self.graph.node(self.liberal).prefixes:
                pool.append(self.liberal)
        rng.shuffle(pool)
        members: list[int] = []
        while len(members) < profile.n_vps:
            # Mostly one VP per AS; reuse ASes only once the pool runs dry
            # (Figure 10: 81 % of VP ASes host exactly one VP).
            members.extend(pool[: profile.n_vps - len(members)])
            if not pool:
                break
        for index, asn in enumerate(members[: profile.n_vps]):
            collector = collectors[index % len(collectors)]
            collector.add_vp(self._vp_ip(asn), asn)

    def _attach_multihop_vps(self, collector: Collector) -> None:
        rng = self.rng
        foreign = [
            handles.transits[0]
            for code, handles in sorted(self.by_country.items())
            if handles.transits and code != collector.country
            and self.graph.node(handles.transits[0]).prefixes
        ]
        count = min(max(2, len(collector.vps) + 3), len(foreign))
        for asn in rng.sample(foreign, k=count):
            collector.add_vp(self._vp_ip(asn), asn)
