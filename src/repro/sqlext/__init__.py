"""Extended-SQL front-end: SKYLINE clause parsing, analysis and execution.

``reference_sql`` (the Listing-4 rewrite) lives in ``repro.core.physical``
and is re-exported here for callers of the SQL front end.
"""
from .parser import ParsedSkylineQuery, parse_skyline_query  # noqa: F401
from ..core.physical import reference_sql  # noqa: F401
from .engine import sky_sql  # noqa: F401
