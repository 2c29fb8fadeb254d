"""Independent recount of shapes, multiply-adds and parameters.

Works from ``Graph.to_json_dict()`` alone and imports nothing from
pillarcost, so the package's shape inference and costing are checked
against code they do not share.  Semantics follow the package docs: a
convolution counts one MAdd per kernel tap per output element, a
transposed convolution one per kernel tap per input element, a bias one
per output element and batch norm one per element with two parameters
per channel.
"""
from __future__ import annotations

from fractions import Fraction


def _window(size: int, pad: int, kernel: int, stride: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _node(kind: str, a: dict, ins: list[tuple[int, int, int]]):
    """(output shapes, madds, params) of one node given its input shapes."""
    if kind == "input":
        return [tuple(a["shape"])], 0, 0
    c, h, w = ins[0]
    if kind in ("conv", "transposed_conv"):
        oc = a["out_channels"]
        if kind == "conv":
            oh = _window(h, a["pad_h"], a["kernel_h"], a["stride_h"])
            ow = _window(w, a["pad_w"], a["kernel_w"], a["stride_w"])
            taps_over = oh * ow
        else:
            oh = (h - 1) * a["stride_h"] - 2 * a["pad_h"] + a["kernel_h"] + a["output_pad_h"]
            ow = (w - 1) * a["stride_w"] - 2 * a["pad_w"] + a["kernel_w"] + a["output_pad_w"]
            taps_over = h * w
        weights = oc * (c // a["groups"]) * a["kernel_h"] * a["kernel_w"]
        madds = weights * taps_over
        params = weights
        if a["has_bias"]:
            madds += oc * oh * ow
            params += oc
        return [(oc, oh, ow)], madds, params
    if kind == "max_pool":
        return [(c, _window(h, a["pad_h"], a["kernel_h"], a["stride_h"]),
                 _window(w, a["pad_w"], a["kernel_w"], a["stride_w"]))], 0, 0
    if kind == "batch_norm":
        return [(c, h, w)], c * h * w, 2 * c
    if kind in ("relu", "channel_shuffle", "add"):
        return [(c, h, w)], 0, 0
    if kind == "concat":
        return [(sum(s[0] for s in ins), h, w)], 0, 0
    if kind == "channel_split":
        return [(int(c * Fraction(f)), h, w) for f in a["fractions"]], 0, 0
    if kind == "scatter":
        return [(c, a["out_height"], a["out_width"])], 0, 0
    raise ValueError(f"unknown node kind {kind!r}")


def recount(doc: dict, count_batchnorm: bool = True) -> list[tuple[str, str, int, int]]:
    """(name, kind, madds, params) per node, in node id order.

    Node ids of a built graph are a topological order, because a node can
    only be fed by nodes added before it.
    """
    feeds: dict[int, list[tuple[int, int, int]]] = {}
    for src, src_port, dst, dst_port in doc["edges"]:
        feeds.setdefault(dst, []).append((dst_port, src, src_port))
    shapes: dict[tuple[int, int], tuple[int, int, int]] = {}
    rows = []
    for node in sorted(doc["nodes"], key=lambda item: item["id"]):
        ins = [shapes[(src, port)] for _, src, port in sorted(feeds.get(node["id"], []))]
        outs, madds, params = _node(node["kind"], node["attrs"], ins)
        if node["kind"] == "batch_norm" and not count_batchnorm:
            madds = params = 0
        for port, shape in enumerate(outs):
            shapes[(node["id"], port)] = shape
        rows.append((node["name"], node["kind"], madds, params))
    return rows
