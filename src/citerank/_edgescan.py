"""The bulk scan behind fileio.read_edge_list.

scan_edge_list reads an edge list that csv would split into plain fields,
such as write_edge_list writes when no id needs quoting. It reads the bytes
in blocks of _BLOCK_BYTES and finds each block's separators with numpy. One
hash of each field's bytes groups a block's equal fields, which are checked
byte for byte; the first field of each group is looked up by its bytes in a
table that decodes and parses each distinct id and weight spelling once per
file, each id into the code of its stripped form. Those keys are cut from
the block in C, by one numpy gather and one bytes.split. For any other file
it returns None, and read_edge_list reads it through csv. The module loads
on the first read_edge_list call, so commands that read no edge list do not
compile it.
"""

from __future__ import annotations

import codecs
import csv

import numpy as np

from .fileio import _edge_weight
from .network import numbering

# bytes per block: 256 KiB read a 107k-edge list a tenth faster, but its
# arrays raised the peak RSS of `pagerank` by 2 MB more, above that of the
# `build` that wrote the list
_BLOCK_BYTES = 1 << 17

# _LOW_BYTES[k] keeps the first k bytes of a little-endian word
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(8)] + [-1], dtype=np.int64)
_MIX = np.int64(0x5851F42D4C957F2D)  # odd, so multiplying by it loses no bits


def _line_blocks(handle):
    r"""The rest of a binary file in blocks that end at a line end, the last line gaining its \n.

    None once a block's bytes pass without a \n: csv must read such a line, so
    scan_edge_list stops there and never resumes the generator.
    """
    data = b""
    while more := handle.read(_BLOCK_BYTES):
        data += more
        cut = data.rfind(b"\n") + 1
        if cut:
            block, data, more = data[:cut], data[cut:], None  # hold one block while it is read
            yield block
        elif len(data) > _BLOCK_BYTES:
            yield None
    if data:
        yield data + b"\n"


def _edge_fields(data: bytes, limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    r"""Start and length of each field of a block of whole lines, as two (3, rows) arrays.

    None where csv could split the block otherwise or would reject it: a
    quote, a NUL, a \r not followed by \n, a line that is neither blank nor
    three fields, or a field that is empty or longer than `limit` bytes.
    """
    if b'"' in data or b"\0" in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    returns = np.count_nonzero(buf == ord("\r"))
    sep = buf == ord(",")
    sep |= buf == ord("\n")
    sep = np.flatnonzero(sep)
    newline = np.flatnonzero(buf[sep] == ord("\n"))
    end = sep[newline]
    crlf = buf[end - 1] == ord("\r")
    if np.count_nonzero(crlf) != returns:
        return None
    begin = np.concatenate(([0], end[:-1] + 1))
    stop = end - crlf  # where a line's last field ends
    row = np.diff(newline, prepend=-1) == 3  # two commas, then the line end
    if not (row | (stop == begin)).all():
        return None
    at = newline[row]
    edges = np.stack((begin[row] - 1, sep[at - 2], sep[at - 1], stop[row]))
    length = np.diff(edges, axis=0)
    length -= 1
    if length.size and not 0 < length.min() <= length.max() <= limit:
        return None
    start = edges[:-1]
    start += 1
    return start, length


def _middle_words(words: np.ndarray, start: np.ndarray, length: np.ndarray):
    """The 8-byte words between each field's first and last 8: (fields, word) at 8, 16, ..."""
    fields = np.flatnonzero(length > 16)
    for k in range(8, int(length.max()) - 8, 8):
        fields = fields[length[fields] - 8 > k]
        yield fields, words[start[fields] + k]


def _groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal keys grouped by one sort: one index of each group, and the group of each key.

    The sort runs on the keys' high bits with each key's index in the low
    ones, so keys that differ only in their low bits share a group.
    """
    bits = max(key.size - 1, 1).bit_length()
    order = key >> bits << bits
    order |= np.arange(key.size)
    order.sort()
    index = order & ((1 << bits) - 1)
    order >>= bits
    head = np.concatenate(([True], order[1:] != order[:-1]))
    group = np.empty(key.size, np.intp)
    group[index] = np.cumsum(head) - 1
    return index[head], group


class _Spellings(dict):
    """The value of each distinct byte string of an edge-list column, parsed once per file.

    Keyed by the bytes themselves, so two spellings never share an entry.
    block() looks up one field of each group of a block's equal fields: the
    fields are grouped by a hash of their 8-byte words and checked byte for
    byte against their group's first, through their length and their first
    and last 8 bytes, which hold all of a field of up to 16, and through the
    words between for a longer one.
    """

    def __init__(self, parse, dtype):
        super().__init__()
        self.parse = parse  # bytes -> value; raises ValueError where csv must decide
        self.dtype = dtype

    def __missing__(self, raw: bytes):
        value = self[raw] = self.parse(raw)
        return value

    def block(self, data: bytes, words: np.ndarray, start: np.ndarray, length: np.ndarray):
        """The value of each field of a block, or None where one cannot be read in bulk.

        `words` holds the 8 bytes of `data` from each offset, little-endian.
        The group heads' keys come from one gather of each head's bytes and
        the separator after it, each separator made a comma, split by one
        bytes.split(b","). The gather's index is 32-bit, as a block is far
        below 2 GiB: a 64-bit one raised the traced peak of reading a
        99k-row list by 0.13 MB.
        """
        exact = np.stack((length, words[start], words[start + np.maximum(length - 8, 0)]))
        exact[1:] &= _LOW_BYTES[np.minimum(length, 8)]
        key = (exact[0] ^ exact[1]) * _MIX ^ exact[2]
        longer = length.max() > 16
        if longer:
            for fields, word in _middle_words(words, start, length):
                key[fields] = key[fields] * _MIX ^ word
        key *= _MIX
        one, group = _groups(key)
        peer = one[group]
        if not all(np.array_equal(x, x.take(peer)) for x in exact):
            return None
        if longer:
            ours, theirs = _middle_words(words, start, length), _middle_words(words, start[peer], length)
            if not all(np.array_equal(x, y) for (_, x), (_, y) in zip(ours, theirs)):
                return None
        size = length[one] + 1  # each head and the separator after it, in one gather
        end = np.cumsum(size, dtype=np.int32)
        index = np.repeat((start[one] - end + size).astype(np.int32), size)
        index += np.arange(index.size, dtype=np.int32)
        heads = np.frombuffer(data, np.uint8)[index]
        heads[end - 1] = ord(",")  # a field holds no comma
        raws = heads.tobytes().split(b",")
        try:
            values = np.fromiter(map(self.__getitem__, raws), self.dtype, one.size)
        except ValueError:  # UnicodeDecodeError is one
            return None
        return values[group]


def scan_edge_list(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray] | None:
    """fileio.read_edge_list's ids and columns of an edge list, read in bulk, or None where csv must read it."""
    limit = csv.field_size_limit()
    code = numbering("nodes")

    def id_of(raw: bytes) -> int:
        text = raw.decode().strip()
        if not text:
            raise ValueError("empty institution id")
        return code[text]

    ids = _Spellings(id_of, np.intc)
    spellings = _Spellings(lambda raw: _edge_weight(raw.decode().strip()), np.int64)
    sources, targets, weights = np.empty(0, np.intc), np.empty(0, np.intc), np.empty(0, np.int64)
    with open(path, "rb") as handle:
        header = handle.readline(64).removeprefix(codecs.BOM_UTF8)
        if header not in (b"source,target,weight\n", b"source,target,weight\r\n"):
            return None
        for data in _line_blocks(handle):
            fields = None if data is None else _edge_fields(data, limit)
            if fields is None:
                return None
            start, length = fields
            if not length.size:
                continue
            words = np.ndarray((len(data) + 1,), "<i8", data + bytes(8), 0, (1,))  # 8 bytes from each offset
            both = ids.block(data, words, start[:2].ravel(), length[:2].ravel())
            weight = spellings.block(data, words, start[2], length[2])
            if both is None or weight is None:
                return None
            for column, more in (sources, both[: weight.size]), (targets, both[weight.size :]), (weights, weight):
                column.resize(column.size + more.size, refcheck=False)  # in place: no block is held twice
                column[column.size - more.size :] = more
    return list(code), sources, targets, weights
