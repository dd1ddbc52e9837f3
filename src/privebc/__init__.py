"""Differentially private two-party egocentric betweenness centrality.

Two data holders split a graph's nodes; each sees its own internal
edges plus the shared cross edges. The protocol lets party X estimate
the egocentric betweenness of one of its nodes with edge differential
privacy against the other party: X releases a perturbed neighbour set
via a two-stage exponential-mechanism sampler, Y answers with 2-path
counts and a partial sum under exact two-sided geometric noise, and X
assembles the estimate. See README.md for the CLI and experiment harness.
"""

from .backward import BackwardMsg, DegenerateEgoError, partial_ebc_y, spanning_counts
from .dpnum import DEFAULT_CONTEXT, PrivacyParams
from .forward import (
    ForwardMsg,
    StratumDistribution,
    forward_message,
    stratum_distribution,
)
from .graphs import (
    EgoContext,
    Graph,
    GraphParseError,
    LoadReport,
    PartitionedGraph,
    PartyView,
    UnknownNodeError,
    WrongPartyError,
    ego_context,
    exact_ebc,
    load_edge_list,
    partition_nodes,
)
from .protocol import (
    ALL_MECHS,
    BudgetLedger,
    DecodeError,
    EbcAccumulator,
    HandshakeError,
    ProtocolConfig,
    ProtocolError,
    SessionResult,
    decode_msg,
    encode_msg,
    nonprivate_ebc_protocol,
    private_ebc,
    run_session,
    run_two_process,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_MECHS",
    "BackwardMsg",
    "BudgetLedger",
    "DEFAULT_CONTEXT",
    "DecodeError",
    "DegenerateEgoError",
    "EbcAccumulator",
    "EgoContext",
    "ForwardMsg",
    "Graph",
    "GraphParseError",
    "HandshakeError",
    "LoadReport",
    "PartitionedGraph",
    "PartyView",
    "PrivacyParams",
    "ProtocolConfig",
    "ProtocolError",
    "SessionResult",
    "StratumDistribution",
    "UnknownNodeError",
    "WrongPartyError",
    "decode_msg",
    "ego_context",
    "encode_msg",
    "exact_ebc",
    "forward_message",
    "load_edge_list",
    "nonprivate_ebc_protocol",
    "partial_ebc_y",
    "partition_nodes",
    "private_ebc",
    "run_session",
    "run_two_process",
    "spanning_counts",
    "stratum_distribution",
    "__version__",
]
