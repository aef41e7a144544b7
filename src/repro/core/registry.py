"""Policy registry: build any eviction policy from a name plus keyword options."""

from __future__ import annotations

from typing import Any

from repro.core.config import CachePolicyConfig, KeyformerConfig
from repro.core.keyformer import KeyformerPolicy
from repro.core.policies import (
    EvictionPolicy,
    FullAttentionPolicy,
    H2OPolicy,
    KeyAttentionPolicy,
    StreamingLLMPolicy,
    WindowAttentionPolicy,
)

__all__ = ["POLICIES", "make_policy"]

POLICIES = (
    "full",
    "window",
    "key-only",
    "h2o",
    "streaming-llm",
    "keyformer",
)

_CONFIG_FIELDS = set(CachePolicyConfig.__dataclass_fields__)
_KEYFORMER_FIELDS = set(KeyformerConfig.__dataclass_fields__)


def _split_kwargs(kwargs: dict[str, Any], allowed: set[str]) -> tuple[dict, dict]:
    config_kwargs = {k: v for k, v in kwargs.items() if k in allowed}
    other_kwargs = {k: v for k, v in kwargs.items() if k not in allowed}
    return config_kwargs, other_kwargs


def make_policy(name: str, **kwargs: Any) -> EvictionPolicy:
    """Instantiate an eviction policy by name.

    Budget options (``kv_fraction``, ``kv_budget``, ``recent_ratio``,
    ``positional_mode``, ``seed``, ...) are routed into the policy's config
    dataclass; policy-specific options (``damping``, ``n_sinks``, ``noise``,
    ``tau_init``, ...) are routed to the policy constructor or Keyformer
    config as appropriate.

    Examples
    --------
    >>> make_policy("keyformer", kv_fraction=0.5, recent_ratio=0.3).name
    'keyformer'
    >>> make_policy("h2o", kv_fraction=0.6).name
    'h2o'
    """
    key = name.lower().replace("_", "-")
    if key == "full":
        cfg_kwargs, rest = _split_kwargs(kwargs, _CONFIG_FIELDS)
        _reject_unknown(rest, key)
        return FullAttentionPolicy(CachePolicyConfig(**cfg_kwargs) if cfg_kwargs else None)
    if key == "window":
        cfg_kwargs, rest = _split_kwargs(kwargs, _CONFIG_FIELDS)
        _reject_unknown(rest, key)
        return WindowAttentionPolicy(CachePolicyConfig(**cfg_kwargs) if cfg_kwargs else None)
    if key == "key-only":
        cfg_kwargs, rest = _split_kwargs(kwargs, _CONFIG_FIELDS)
        damping = rest.pop("damping", 1.0)
        _reject_unknown(rest, key)
        return KeyAttentionPolicy(
            CachePolicyConfig(**cfg_kwargs) if cfg_kwargs else None, damping=damping
        )
    if key == "h2o":
        cfg_kwargs, rest = _split_kwargs(kwargs, _CONFIG_FIELDS)
        damping = rest.pop("damping", 1.0)
        _reject_unknown(rest, key)
        cfg_kwargs.setdefault("recent_ratio", 0.5)
        return H2OPolicy(CachePolicyConfig(**cfg_kwargs), damping=damping)
    if key == "streaming-llm":
        cfg_kwargs, rest = _split_kwargs(kwargs, _CONFIG_FIELDS)
        n_sinks = rest.pop("n_sinks", 4)
        _reject_unknown(rest, key)
        return StreamingLLMPolicy(
            CachePolicyConfig(**cfg_kwargs) if cfg_kwargs else None, n_sinks=n_sinks
        )
    if key == "keyformer":
        cfg_kwargs, rest = _split_kwargs(kwargs, _KEYFORMER_FIELDS)
        _reject_unknown(rest, key)
        return KeyformerPolicy(KeyformerConfig(**cfg_kwargs))
    raise KeyError(f"unknown policy {name!r}; available: {POLICIES}")


def _reject_unknown(rest: dict[str, Any], name: str) -> None:
    if rest:
        raise TypeError(f"unexpected options for policy {name!r}: {sorted(rest)}")
