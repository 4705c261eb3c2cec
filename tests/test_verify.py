from lrcommute.verify import check_knuth_commutativity, check_route_geometry


def test_route_geometry_reports_the_shared_sweep_time():
    # route-geometry reads the knuth sweep from its cache, and reports the
    # time that sweep took rather than the time of the cache lookup
    knuth = check_knuth_commutativity(max_size=5, word_len=4)
    route = check_route_geometry(max_size=5, word_len=4)
    assert route.seconds == knuth.seconds > 0
