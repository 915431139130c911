"""Study configurations written back to the INI text that ``fvlab.cli``
reads, for the tests that pass a config through the command line."""

from fvlab.study import CONFIG_TABLE, META_DEFAULTS, StudyConfig


def serialize_config(cfg: StudyConfig, meta: dict | None = None) -> str:
    """INI text of a StudyConfig and its meta settings; ``parse_config``
    of the text gives them back."""
    meta = {**META_DEFAULTS, **(meta or {})}
    sections = {}
    for section, key, target, conv, _ in CONFIG_TABLE:
        if isinstance(target, tuple):
            box, axis, end = target
            bounds = getattr(cfg, box)
            if bounds is None or axis >= len(bounds):
                continue
            value = bounds[axis][end]
        elif target in META_DEFAULTS:
            value = meta[target]
            if value == META_DEFAULTS[target]:
                continue
        else:
            value = getattr(cfg, target)
        text = repr(value) if conv is float else str(value)
        sections.setdefault(section, []).append(f"{key} = {text}")
    sections["thresholds"] = [f"{k} = {v!r}" for k, v in cfg.thresholds.items()]
    return "\n\n".join("\n".join([f"[{name}]"] + lines)
                       for name, lines in sections.items() if lines) + "\n"
