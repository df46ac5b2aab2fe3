import pytest

from eopack.graph import (
    Graph,
    GraphError,
    hypercube,
    iter_graph6,
    parse_graph6,
    write_graph6,
)


def test_hand_decoded_example():
    # 'D' -> n=5; '?' -> 000000 for pairs (0,1)(0,2)(1,2)(0,3)(1,3)(2,3);
    # '{' -> 111100 for pairs (0,4)(1,4)(2,4)(3,4) plus two zero pad bits.
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges == ((0, 4), (1, 4), (2, 4), (3, 4))


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.m == 0


def test_zero_vertices():
    assert write_graph6(Graph(0, [])) == "?"
    g = parse_graph6("?")
    assert g.n == 0 and g.m == 0


def test_hand_encoded_p3_and_k3():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert write_graph6(p3) == "Bg"  # bits 101 -> 40 -> 'g'
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert write_graph6(k3) == "Bw"  # bits 111 -> 56 -> 'w'


def test_header_tolerated():
    assert parse_graph6(">>graph6<<Bw").m == 3


def test_round_trip_parse_write():
    for s in ["?", "@", "A_", "Bw", "D?{", "DQc", "G?zTb_"]:
        assert write_graph6(parse_graph6(s)) == s


def test_round_trip_write_parse():
    g = Graph.from_edges(6, [(0, 1), (0, 5), (2, 4), (3, 4), (1, 2)])
    assert parse_graph6(write_graph6(g)) == g


def test_large_order_length_field():
    g = Graph.from_edges(63, [(0, 62)])
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_out_of_range_character():
    with pytest.raises(GraphError, match="byte 1"):
        parse_graph6("B" + chr(20))


def test_trailing_bytes():
    with pytest.raises(GraphError, match="trailing bytes at byte 2"):
        parse_graph6("Bww")


def test_truncated_edge_data():
    with pytest.raises(GraphError, match="truncated"):
        parse_graph6("D?")


def test_truncated_length_field():
    with pytest.raises(GraphError, match="truncated length field"):
        parse_graph6("~B")


def test_nonzero_padding_rejected():
    # K_1,4 body byte with a padding bit forced on: '{' -> '}'
    with pytest.raises(GraphError, match="padding"):
        parse_graph6("D?}")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph6 string"),
        ("B\u00e9", "non-ASCII character at byte 1"),
        ("\x1fA", "out-of-range character at byte 0"),
        ("\u2003Bw", "non-ASCII character at byte 0"),
        ("B\x14", "out-of-range character at byte 1"),
        # offsets count the header and leading whitespace of the input
        (">>graph6<<B\x14", "out-of-range character at byte 11"),
        ("  B\x14", "out-of-range character at byte 3"),
        ("~", "truncated length field at byte 1"),
        ("~A", "truncated length field at byte 2"),
        ("~~AB", "truncated length field at byte 4"),
        ("D?", "truncated edge data at byte 2"),
        ("Bww", "trailing bytes at byte 2"),
        ("D?}", "nonzero padding bits at byte 2"),
    ],
)
def test_parse_errors_are_pinned(text, message):
    with pytest.raises(GraphError) as info:
        parse_graph6(text)
    assert str(info.value) == message


def test_non_minimal_length_fields_decode():
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert parse_graph6("~??Bw") == k3
    assert parse_graph6("~~?????Bw") == k3
    assert parse_graph6("~~??????") == Graph(0, [])
    assert parse_graph6("~~?????@") == Graph(1, [0])


def test_hypercube_10_round_trip():
    q = hypercube(10)
    assert parse_graph6(write_graph6(q)) == q


def test_multi_graph_file():
    for text in ("Bw\n\nD?{\n", "Bw\r\n \t\r\nD?{\r\n"):
        assert [g.n for g in iter_graph6(text)] == [3, 5]


def test_spaces_and_line_ends_around_a_string_are_ignored():
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert parse_graph6("Bw\r\n") == parse_graph6(" Bw ") == parse_graph6("\t>>graph6<<Bw") == k3


def test_file_errors_count_bytes_from_the_line_start():
    with pytest.raises(GraphError) as info:
        list(iter_graph6("Bw\n  B\x14\n"))
    assert str(info.value) == "line 2: out-of-range character at byte 3"
