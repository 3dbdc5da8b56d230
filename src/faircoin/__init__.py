"""Fair-coin betting game: strategies, stopping times, and exact pricing.

A simulation and verification engine for the two-player fair-coin betting
protocol: Skeptic's contrarian and one-sided strategies with their exact
capital processes, origin-excursion stopping times, and backward-induction
pricing/replication of boundary-hitting tickets, all checkable in exact
rational arithmetic.
"""

from .game import (
    GameTrace,
    run_game,
)
from .pricing import (
    AbsorptionCensus,
    EtaTable,
    PriceBracket,
    bracket_series,
    delta_hedge_bet,
    enumerate_absorption,
    eta_table,
    replicate_and_verify,
    upper_price_bracket,
)
from .stopping import (
    EventReport,
    TicketStatus,
    boundary_exceeds,
    event_report,
    excursions,
    ticket_Y,
)
from .strategies import (
    AdditiveContrarian,
    Mixture,
    MultiplicativeContrarian,
    OneSided,
    PathBettor,
    SignForcing,
    StoppedAdditive,
    parse_strategy,
    truncated_q,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
