"""The core epistemic (Kripke) structure data type.

The structure stores, per agent, an *adjacency map* from worlds to frozensets
of accessible worlds.  When accessibility is an equivalence relation (the
usual S5 case of the paper) the helper constructors in
:mod:`repro.kripke.builders` build the adjacency maps from observation
functions or partitions; this module is agnostic about the relational
properties and provides predicates (:meth:`EpistemicStructure.is_s5`, ...) to
check them.
"""

from repro.util.errors import ModelError


class EpistemicStructure:
    """An epistemic structure ``(W, (R_a)_a, L)`` over propositions and agents.

    Parameters
    ----------
    worlds:
        Iterable of hashable world identifiers.
    accessibility:
        Mapping ``agent -> {world -> iterable of worlds}``.  Missing worlds
        are treated as having no successors for that agent.
    labelling:
        Mapping ``world -> iterable of proposition names`` that hold there.
    agents:
        Optional explicit agent list; defaults to the keys of
        ``accessibility``.

    The structure is immutable after construction.
    """

    __slots__ = (
        "_worlds",
        "_agents",
        "_accessibility",
        "_labelling",
        "_propositions",
        "_world_index",
        "_engine_cache",
    )

    def __init__(self, worlds, accessibility, labelling, agents=None):
        world_list = list(worlds)
        world_set = set(world_list)
        if len(world_list) != len(world_set):
            raise ModelError("duplicate worlds in epistemic structure")
        if agents is None:
            agents = list(accessibility)
        agent_tuple = tuple(agents)

        adjacency = {}
        for agent in agent_tuple:
            agent_map = {}
            source_map = accessibility.get(agent, {})
            for world in world_list:
                successors = frozenset(source_map.get(world, ()))
                unknown = successors - world_set
                if unknown:
                    raise ModelError(
                        f"accessibility of agent {agent!r} from world {world!r} "
                        f"mentions unknown worlds {sorted(map(repr, unknown))}"
                    )
                agent_map[world] = successors
            adjacency[agent] = agent_map
        unknown_sources = set(accessibility) - set(agent_tuple)
        if unknown_sources:
            raise ModelError(f"accessibility given for undeclared agents {sorted(unknown_sources)}")

        label_map = {}
        for world in world_list:
            props = labelling.get(world, ())
            label_map[world] = frozenset(props)
        unknown_labelled = set(labelling) - world_set
        if unknown_labelled:
            raise ModelError(f"labelling mentions unknown worlds {sorted(map(repr, unknown_labelled))}")

        self._worlds = tuple(world_list)
        self._agents = agent_tuple
        self._accessibility = adjacency
        self._labelling = label_map
        self._propositions = frozenset().union(*label_map.values()) if label_map else frozenset()
        # Dense world indexing: position in construction order.  The index is
        # the contract between the structure and the bit-level evaluation
        # backends of :mod:`repro.engine` (bit ``i`` of a world-set mask
        # stands for ``self._worlds[i]``).
        self._world_index = {world: index for index, world in enumerate(self._worlds)}
        # Memoisation area for engine-derived data (accessibility masks,
        # proposition masks, evaluators).  The structure is immutable, so
        # entries never need invalidation.
        self._engine_cache = {}

    # -- basic accessors -------------------------------------------------------

    @property
    def worlds(self):
        """The worlds as a tuple (construction order preserved)."""
        return self._worlds

    @property
    def agents(self):
        """The agents as a tuple."""
        return self._agents

    @property
    def propositions(self):
        """All proposition names used in the labelling."""
        return self._propositions

    @property
    def world_index(self):
        """The mapping ``world -> dense index`` (construction order).

        Treat the returned mapping as read-only; it is shared with the
        evaluation engine.
        """
        return self._world_index

    @property
    def engine_cache(self):
        """Per-structure memoisation area of :mod:`repro.engine`.

        Holds derived evaluation data (accessibility bitmask arrays,
        proposition masks, persistent evaluators) keyed by the engine; safe
        to clear at any time, never invalidated because the structure is
        immutable.
        """
        return self._engine_cache

    def index_of(self, world):
        """Return the dense index of ``world`` (its bit position in engine
        bitmasks)."""
        try:
            return self._world_index[world]
        except KeyError:
            raise ModelError(f"unknown world {world!r}") from None

    def world_at(self, index):
        """Return the world with dense index ``index``."""
        if not 0 <= index < len(self._worlds):
            raise ModelError(f"world index {index!r} out of range")
        return self._worlds[index]

    def __len__(self):
        return len(self._worlds)

    def __contains__(self, world):
        return world in self._labelling

    def has_agent(self, agent):
        return agent in self._accessibility

    def labels(self, world):
        """Return the frozenset of propositions true at ``world``."""
        try:
            return self._labelling[world]
        except KeyError:
            raise ModelError(f"unknown world {world!r}") from None

    def label_holds(self, world, proposition):
        """Return ``True`` if ``proposition`` is in the labelling of ``world``."""
        return proposition in self.labels(world)

    def accessible(self, agent, world):
        """Return the frozenset of worlds agent ``agent`` considers possible
        at ``world``."""
        try:
            agent_map = self._accessibility[agent]
        except KeyError:
            raise ModelError(f"unknown agent {agent!r}") from None
        try:
            return agent_map[world]
        except KeyError:
            raise ModelError(f"unknown world {world!r}") from None

    def relation(self, agent):
        """Return agent ``agent``'s accessibility relation as a set of pairs."""
        agent_map = self._accessibility.get(agent)
        if agent_map is None:
            raise ModelError(f"unknown agent {agent!r}")
        return {(w, v) for w, succs in agent_map.items() for v in succs}

    def adjacency(self, agent):
        """Return agent ``agent``'s adjacency map ``{world: frozenset(worlds)}``."""
        agent_map = self._accessibility.get(agent)
        if agent_map is None:
            raise ModelError(f"unknown agent {agent!r}")
        return dict(agent_map)

    # -- relational properties -------------------------------------------------

    def is_reflexive(self, agent=None):
        """Check reflexivity of one agent's relation (or of all relations)."""
        agents = [agent] if agent is not None else self._agents
        return all(w in self.accessible(a, w) for a in agents for w in self._worlds)

    def is_symmetric(self, agent=None):
        agents = [agent] if agent is not None else self._agents
        for a in agents:
            for w in self._worlds:
                for v in self.accessible(a, w):
                    if w not in self.accessible(a, v):
                        return False
        return True

    def is_transitive(self, agent=None):
        agents = [agent] if agent is not None else self._agents
        for a in agents:
            for w in self._worlds:
                for v in self.accessible(a, w):
                    if not self.accessible(a, v) <= self.accessible(a, w):
                        return False
        return True

    def is_euclidean(self, agent=None):
        agents = [agent] if agent is not None else self._agents
        for a in agents:
            for w in self._worlds:
                successors = self.accessible(a, w)
                for v in successors:
                    if not successors <= self.accessible(a, v):
                        return False
        return True

    def is_s5(self, agent=None):
        """Return ``True`` if the relation(s) are equivalence relations."""
        return self.is_reflexive(agent) and self.is_symmetric(agent) and self.is_transitive(agent)

    def equivalence_classes(self, agent):
        """Return the partition induced by agent ``agent``'s relation.

        Raises :class:`ModelError` if the relation is not an equivalence
        relation.
        """
        if not self.is_s5(agent):
            raise ModelError(f"relation of agent {agent!r} is not an equivalence relation")
        seen = set()
        classes = []
        for world in self._worlds:
            if world in seen:
                continue
            cls = self.accessible(agent, world)
            seen.update(cls)
            classes.append(frozenset(cls))
        return classes

    # -- derived structures ----------------------------------------------------

    def with_labelling(self, labelling):
        """Return a copy of the structure with a replaced labelling."""
        return EpistemicStructure(
            self._worlds,
            {agent: dict(self._accessibility[agent]) for agent in self._agents},
            labelling,
            agents=self._agents,
        )

    # -- value semantics & debugging --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, EpistemicStructure):
            return NotImplemented
        return (
            set(self._worlds) == set(other._worlds)
            and set(self._agents) == set(other._agents)
            and all(
                self.accessible(a, w) == other.accessible(a, w)
                for a in self._agents
                for w in self._worlds
            )
            and all(self.labels(w) == other.labels(w) for w in self._worlds)
        )

    def __hash__(self):
        return hash((frozenset(self._worlds), frozenset(self._agents)))

    def __repr__(self):
        return (
            f"EpistemicStructure(|W|={len(self._worlds)}, agents={list(self._agents)}, "
            f"|P|={len(self._propositions)})"
        )

    def describe(self):
        """Return a human-readable multi-line description of the structure."""
        lines = [f"EpistemicStructure with {len(self._worlds)} worlds"]
        for world in self._worlds:
            props = ", ".join(sorted(self.labels(world))) or "(no propositions)"
            lines.append(f"  {world!r}: {props}")
            for agent in self._agents:
                successors = sorted(map(repr, self.accessible(agent, world)))
                lines.append(f"    ~{agent}~> {successors}")
        return "\n".join(lines)
