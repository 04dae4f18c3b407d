"""``json.dumps(value, indent=2, sort_keys=True)``, each string escaped by the C-level :func:`quote`."""

import json
from json.encoder import encode_basestring_ascii as quote


def bracket(brackets: str, items: list[str], indent: str) -> str:
    """Rendered ``items``, one level below ``indent``, inside ``"[]"`` or ``"{}"``."""
    inner = indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1] if items else brackets


def render(value, indent: str = "\n") -> str:
    """The text of ``value`` standing at ``indent``; a callable, called with ``indent``, gives its own text."""
    if callable(value):
        return value(indent)
    if isinstance(value, dict):
        return bracket("{}", [f"{quote(key)}: {render(value[key], indent + '  ')}" for key in sorted(value)], indent)
    if isinstance(value, (list, tuple)):
        return bracket("[]", [render(item, indent + "  ") for item in value], indent)
    return json.dumps(value)
