//! Property-based tests for the global router.

use macro3d_geom::{Point, Rect};
use macro3d_netlist::NetId;
use macro3d_route::{
    route_design, steiner_length, RouteConfig, RoutePin, RouteRequest, RoutedDesign, GCELL_UM,
};
use macro3d_tech::stack::MetalStack;
use macro3d_tech::stack::{n28_stack, DieRole};
use proptest::prelude::*;

fn die() -> Rect {
    Rect::from_um(0.0, 0.0, 300.0, 300.0)
}

fn route(stack: &MetalStack, nets: &[(NetId, Vec<RoutePin>)], cfg: &RouteConfig) -> RoutedDesign {
    route_design(
        &RouteRequest {
            die: die(),
            stack,
            obstacles: &[],
            nets,
            num_nets: nets.len(),
        },
        cfg,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every routed two-pin net's length is bounded below by (gcell-
    /// quantized) Manhattan distance and above by a small detour
    /// factor in an uncongested die.
    #[test]
    fn route_length_bounds(
        x0 in 10.0f64..290.0, y0 in 10.0f64..290.0,
        x1 in 10.0f64..290.0, y1 in 10.0f64..290.0,
    ) {
        let stack = n28_stack(6, DieRole::Logic);
        let a = Point::from_um(x0, y0);
        let b = Point::from_um(x1, y1);
        let nets = vec![(NetId(0), vec![(a, 0u16), (b, 0u16)])];
        let cfg = RouteConfig::default();
        let r = route(&stack, &nets, &cfg);
        let net = r.net(NetId(0)).expect("routed");
        let manhattan = a.manhattan(b).to_um();
        let quant = 2.0 * GCELL_UM; // endpoint quantization slack
        prop_assert!(
            net.wirelength_um() + quant >= manhattan - quant,
            "wl {} vs manhattan {manhattan}",
            net.wirelength_um()
        );
        prop_assert!(
            net.wirelength_um() <= manhattan * 1.6 + 4.0 * GCELL_UM,
            "wl {} vs manhattan {manhattan}",
            net.wirelength_um()
        );
    }

    /// Via counts and segment layers are always consistent with the
    /// stack (no out-of-range layers), for random multi-pin nets.
    #[test]
    fn layers_always_in_range(
        pins in proptest::collection::vec((10.0f64..290.0, 10.0f64..290.0), 2..10),
    ) {
        let stack = n28_stack(6, DieRole::Logic);
        let net_pins: Vec<(Point, u16)> =
            pins.iter().map(|&(x, y)| (Point::from_um(x, y), 0u16)).collect();
        let nets = vec![(NetId(0), net_pins)];
        let r = route(&stack, &nets, &RouteConfig::default());
        let net = r.net(NetId(0)).expect("routed");
        for s in &net.segments {
            prop_assert!((s.layer as usize) < stack.num_layers());
        }
        for v in &net.vias {
            prop_assert!((v.layer as usize) < stack.num_layers() - 1);
        }
        prop_assert_eq!(net.f2f_crossings, 0, "single-die stack has no F2F cut");
    }

    /// The Steiner topology never exceeds the star topology and never
    /// undercuts half the bounding-box perimeter.
    #[test]
    fn steiner_bounds(
        pins in proptest::collection::vec((0.0f64..500.0, 0.0f64..500.0), 2..20),
    ) {
        let pts: Vec<Point> = pins.iter().map(|&(x, y)| Point::from_um(x, y)).collect();
        let len = steiner_length(&pts);
        let mut lo = pts[0];
        let mut hi = pts[0];
        for &p in &pts[1..] {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        let hpwl = lo.manhattan(hi);
        prop_assert!(len >= hpwl, "steiner {len:?} < hpwl {hpwl:?}");
        let star: macro3d_geom::Dbu = pts[1..].iter().map(|p| pts[0].manhattan(*p)).sum();
        prop_assert!(len <= star.max(hpwl));
    }
}
