"""RPL003 fixture: table changed AND version bumped (stale snapshot)."""

MANIFEST_VERSION = 2


class WireTable:
    """Stand-in for the real table class; the fixture is only parsed."""

    def __init__(self, title, version, fields):
        self.title = title
        self.version = version
        self.fields = fields


WIRE_TYPES = {
    "str": lambda value: isinstance(value, str),
    "int >= 0": lambda value: isinstance(value, int) and value >= 0,
}

SHARD_MANIFEST_TABLE = WireTable(
    "shard manifest",
    version=MANIFEST_VERSION,
    fields=(
        ("kind", "str", True, "fixture twin of the real table"),
        ("digest", "str", True, "content digest of the source"),
        ("total_rows", "int >= 0", True, "rows in the full grid"),
        ("hostname", "str", True, "the writing host"),
    ),
)
