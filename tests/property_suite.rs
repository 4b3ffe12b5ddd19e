//! Workspace-level property tests on the invariants DESIGN.md §5 lists,
//! exercised through the public facade.

// EOS asset literals group as <whole>_<4 decimals> on purpose; the flatten
// helpers in the equivalence suite trade type brevity for exact comparisons.
#![allow(clippy::inconsistent_digit_grouping, clippy::type_complexity)]

use proptest::prelude::*;
use txstat::eos::{Name, RamMarket};
use txstat::types::time::{civil_from_days, days_from_civil, ChainTime, Period};
use txstat::types::{lzss, BucketSeries, TopK, SIX_HOURS};
use txstat::xrp::{
    Amount, AccountId, Asset, IssuedCurrency, LedgerConfig, Transaction, TxPayload, XrpLedger,
    DROPS_PER_XRP,
};

proptest! {
    /// Civil-date math: days ↔ (y, m, d) roundtrips over ±120 years.
    #[test]
    fn civil_date_roundtrip(z in -43_800i64..43_800) {
        let (y, m, d) = civil_from_days(z);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        prop_assert_eq!(days_from_civil(y, m, d), z);
    }

    /// Month lengths are respected (no Feb 30 etc.).
    #[test]
    fn civil_date_month_lengths(z in -43_800i64..43_800) {
        let (y, m, d) = civil_from_days(z);
        let leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
        let max_d = match m {
            2 => if leap { 29 } else { 28 },
            4 | 6 | 9 | 11 => 30,
            _ => 31,
        };
        prop_assert!(d <= max_d, "{y}-{m}-{d}");
    }

    /// LZSS: arbitrary bytes roundtrip; output bounded by 9/8·n + ε.
    #[test]
    fn lzss_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let compressed = lzss::compress(&data);
        prop_assert!(compressed.len() <= data.len() + data.len() / 8 + 2);
        prop_assert_eq!(lzss::decompress(&compressed).expect("valid stream"), data);
    }

    /// LZSS decompression never panics on arbitrary (possibly corrupt) input.
    #[test]
    fn lzss_decompress_total(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = lzss::decompress(&data);
    }

    /// Every event lands in exactly one bucket and bucket sums equal totals.
    #[test]
    fn bucket_sums_equal_totals(offsets in proptest::collection::vec(0i64..(92 * 86_400), 1..200)) {
        let period = Period::paper();
        let mut series: BucketSeries<&str> = BucketSeries::six_hourly(period);
        for o in &offsets {
            series.record(period.start + *o, "x", 1);
        }
        let sum: u64 = (0..series.bucket_count()).map(|i| series.bucket_total(i)).sum();
        prop_assert_eq!(sum, offsets.len() as u64);
        prop_assert_eq!(series.total(), offsets.len() as u64);
        prop_assert_eq!(series.out_of_range(), 0);
        // Bucket indices are within range for all in-period instants.
        for o in &offsets {
            let idx = (period.start + *o).bucket_index(period.start, SIX_HOURS);
            prop_assert!((0..series.bucket_count() as i64).contains(&idx));
        }
    }

    /// TopK matches an exact sort on random streams.
    #[test]
    fn topk_matches_exact_sort(items in proptest::collection::vec(0u8..20, 1..300)) {
        let mut topk = TopK::new();
        let mut exact = std::collections::HashMap::new();
        for i in &items {
            topk.inc(*i);
            *exact.entry(*i).or_insert(0u64) += 1;
        }
        let mut sorted: Vec<(u8, u64)> = exact.into_iter().collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        sorted.truncate(5);
        prop_assert_eq!(topk.top(5), sorted);
    }

    /// EOS names: parse(render(x)) is identity over the raw u64 space of
    /// valid names (generated from strings).
    #[test]
    fn eos_name_stability(s in "[a-z1-5]{1,12}") {
        let n = Name::parse(&s).expect("valid name");
        let rendered = n.to_string_repr();
        prop_assert_eq!(Name::parse(&rendered).expect("still valid"), n);
        // Same-length names order like their strings (on-chain table order).
        prop_assert_eq!(rendered, s);
    }

    /// RAM market: a buy-then-sell round trip never mints EOS or RAM.
    #[test]
    fn ram_market_no_minting(
        reserve_ram in 1_000_000u64..100_000_000,
        reserve_eos in 1_000_0000i64..1_000_000_0000,
        spend in 1_0000i64..100_000_0000,
    ) {
        let mut m = RamMarket::new(reserve_ram, reserve_eos);
        let bytes = match m.buy_bytes(spend) {
            Ok(b) => b,
            Err(_) => return Ok(()),
        };
        prop_assert!(bytes < reserve_ram, "cannot drain the reserve");
        if bytes == 0 {
            return Ok(());
        }
        let refund = m.sell_bytes(bytes).expect("sell back");
        prop_assert!(refund <= spend, "round trip loses fees: {refund} vs {spend}");
    }

    /// XRP ledger: a random stream of payments conserves drops exactly
    /// (balances + locked + burned == supply), regardless of failures.
    #[test]
    fn xrp_random_payments_conserve(
        ops in proptest::collection::vec((0u64..6, 0u64..6, 1i64..100_000), 1..60)
    ) {
        let mut ledger = XrpLedger::new(LedgerConfig::default());
        for i in 1..=5u64 {
            ledger.bootstrap_account(AccountId(i), 1_000 * DROPS_PER_XRP, None);
        }
        let now = ledger.config.genesis_time;
        for (f, t, amount) in ops {
            let tx = Transaction::new(
                AccountId(f + 1),
                TxPayload::Payment {
                    destination: AccountId(t + 1),
                    amount: Amount::xrp_drops(amount * 1_000),
                    send_max: None,
                },
                10,
            );
            let _ = ledger.submit(tx, now);
            ledger.check_conservation().map_err(TestCaseError::fail)?;
        }
    }

    /// XRP ledger: random offer streams keep books sorted and IOU
    /// obligations consistent.
    #[test]
    fn xrp_random_offers_consistent(
        ops in proptest::collection::vec((0u64..4, 1i64..500, 1i64..500, any::<bool>()), 1..40)
    ) {
        let mut ledger = XrpLedger::new(LedgerConfig::default());
        let issuer = AccountId(1);
        for i in 1..=4u64 {
            ledger.bootstrap_account(AccountId(i), 10_000 * DROPS_PER_XRP, None);
        }
        for i in 2..=4u64 {
            ledger.bootstrap_iou(AccountId(i), IssuedCurrency::new("USD", issuer), 1_000_000_000);
        }
        let now = ledger.config.genesis_time;
        let usd = Asset::Iou(IssuedCurrency::new("USD", issuer));
        for (a, gets, pays, direction) in ops {
            let account = AccountId(a + 1);
            let (g, p) = if direction {
                (Amount { asset: usd, value: gets as i128 * 1_000 }, Amount::xrp_drops(pays * 1_000))
            } else {
                (Amount::xrp_drops(gets * 1_000), Amount { asset: usd, value: pays as i128 * 1_000 })
            };
            let tx = Transaction::new(account, TxPayload::OfferCreate { gets: g, pays: p }, 10);
            let _ = ledger.submit(tx, now);
            ledger.check_conservation().map_err(TestCaseError::fail)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Engine equivalence: the parallel columnar sweeps must reproduce
// the legacy per-exhibit scans exactly (integer state) / to float tolerance
// (finalization-only f64), and the merge algebra must satisfy
// identity/associativity/commutativity on split block ranges.
// ---------------------------------------------------------------------------

mod fused {
    use proptest::prelude::*;
    use txstat::core::eos_analysis as eos_a;
    use txstat::core::tezos_analysis as tz_a;
    use txstat::core::xrp_analysis as x_a;
    use txstat::core::{
        ClusterInfo, EosColumnar, EosSweep, TezosColumnar, TezosSweep, XrpColumnar, XrpSweep,
    };
    use txstat::eos::{Action, ActionData, Block, Name, Transaction};
    use txstat::tezos::{Address, OpPayload, Operation, PeriodKind, TezosBlock, Vote};
    use txstat::types::amount::SymCode;
    use txstat::types::time::{ChainTime, Period};
    use txstat::xrp::{
        AccountId, Amount, AppliedTx, IssuedCurrency, LedgerBlock, RateOracle, TradeRecord,
        TxPayload, TxResult, DROPS_PER_XRP, IOU_UNIT,
    };

    fn t0() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    fn window() -> Period {
        Period::new(t0(), ChainTime::from_ymd(2019, 10, 4))
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    /// Block times stride 2 hours starting *before* the window, so every
    /// random scenario exercises the out-of-period paths too.
    fn block_time(i: usize) -> ChainTime {
        t0() + (i as i64 - 3) * 7_200
    }

    // ---- EOS ---------------------------------------------------------------

    /// Action spec: (kind, actor, peer, amount).
    type EosSpec = (u8, u8, u8, i64);

    fn eos_name(i: u8) -> Name {
        Name::parse(&format!("acct{}", (b'a' + i % 8) as char)).expect("valid name")
    }

    fn eos_action((kind, a, b, amount): EosSpec) -> Action {
        let (actor, peer) = (eos_name(a), eos_name(b));
        match kind % 6 {
            0 | 1 => Action::token_transfer(
                Name::new("eosio.token"),
                actor,
                peer,
                SymCode::new(if kind == 0 { "EOS" } else { "EIDOS" }),
                amount,
            ),
            2 => Action::new(
                Name::new("whaleextrust"),
                Name::new("verifytrade2"),
                actor,
                ActionData::Trade {
                    buyer: actor,
                    seller: peer,
                    base_symbol: SymCode::new("PLA"),
                    base_amount: amount,
                    quote_symbol: SymCode::new("EOS"),
                    quote_amount: amount / 2 + 1,
                },
            ),
            3 => Action::new(Name::new("eosio"), Name::new("bidname"), actor, ActionData::Generic),
            4 => Action::new(Name::new("eosio"), Name::new("delegatebw"), actor, ActionData::Generic),
            _ => Action::new(peer, Name::new("play"), actor, ActionData::Generic),
        }
    }

    fn eos_blocks(spec: &[Vec<Vec<EosSpec>>]) -> Vec<Block> {
        spec.iter()
            .enumerate()
            .map(|(i, txs)| Block {
                num: 1 + i as u64,
                time: block_time(i),
                producer: Name::new("bp"),
                transactions: txs
                    .iter()
                    .enumerate()
                    .map(|(j, actions)| Transaction {
                        id: (i * 100 + j) as u64,
                        actions: actions.iter().map(|s| eos_action(*s)).collect(),
                        cpu_us: 100,
                        net_bytes: 128,
                    })
                    .collect(),
            })
            .collect()
    }

    fn eos_strategy() -> impl Strategy<Value = Vec<Vec<Vec<EosSpec>>>> {
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u8..8, 0u8..8, 1i64..50), 0..5),
                0..5,
            ),
            1..12,
        )
    }

    fn assert_eos_equiv(sweep: &EosSweep, blocks: &[Block], period: Period) -> Result<(), TestCaseError> {
        let (rows, total) = sweep.action_distribution();
        let (legacy_rows, legacy_total) = eos_a::action_distribution(blocks, period);
        prop_assert_eq!(total, legacy_total);
        let flat = |r: &[eos_a::ActionRow]| -> Vec<(eos_a::EosActionClass, String, u64)> {
            r.iter().map(|r| (r.class, r.action.clone(), r.count)).collect()
        };
        prop_assert_eq!(flat(&rows), flat(&legacy_rows));

        let curated = eos_a::EosLabels::curated();
        let labels = sweep.labels(100, &|n| curated.get(n));
        let legacy_labels =
            eos_a::EosLabels::from_top_contracts(blocks, period, 100, &|n| curated.get(n));
        let series = sweep.throughput_series(&labels);
        let legacy_series = eos_a::throughput_series(blocks, period, &legacy_labels);
        prop_assert_eq!(series.total(), legacy_series.total());
        prop_assert_eq!(series.out_of_range(), legacy_series.out_of_range());
        prop_assert_eq!(series.categories_sorted(), legacy_series.categories_sorted());
        for cat in series.categories_sorted() {
            prop_assert_eq!(series.series_for(&cat), legacy_series.series_for(&cat));
        }

        let recv = sweep.top_received(5);
        let legacy_recv = eos_a::top_received(blocks, period, 5);
        let flat_recv = |r: &[eos_a::ReceivedStats]| -> Vec<(Name, u64, Vec<(String, u64)>)> {
            r.iter().map(|r| (r.account, r.tx_count, r.actions.clone())).collect()
        };
        prop_assert_eq!(flat_recv(&recv), flat_recv(&legacy_recv));

        let sent = sweep.top_senders(5);
        let legacy_sent = eos_a::top_senders(blocks, period, 5);
        let flat_sent =
            |r: &[eos_a::SenderStats]| -> Vec<(Name, u64, u64, Vec<(Name, u64, f64)>)> {
                r.iter()
                    .map(|r| (r.sender, r.sent_count, r.unique_receivers, r.receivers.clone()))
                    .collect()
            };
        prop_assert_eq!(flat_sent(&sent), flat_sent(&legacy_sent));

        let wash = sweep.wash_trading_report();
        let legacy_wash = eos_a::wash_trading_report(blocks, period);
        prop_assert_eq!(wash.total_trades, legacy_wash.total_trades);
        prop_assert_eq!(wash.self_trades, legacy_wash.self_trades);
        prop_assert_eq!(wash.top_accounts.clone(), legacy_wash.top_accounts.clone());
        prop_assert_eq!(wash.top5_participation, legacy_wash.top5_participation);

        let boom = sweep.boomerang_report();
        let legacy_boom = eos_a::boomerang_report(blocks, period);
        prop_assert_eq!(boom.boomerang_txs, legacy_boom.boomerang_txs);
        prop_assert_eq!(boom.boomerangs, legacy_boom.boomerangs);
        prop_assert_eq!(boom.hub, legacy_boom.hub);
        prop_assert_eq!(boom.tx_share, legacy_boom.tx_share);
        prop_assert_eq!(boom.transfer_actions, legacy_boom.transfer_actions);
        prop_assert_eq!(boom.transfer_share, legacy_boom.transfer_share);

        prop_assert_eq!(sweep.tps(), eos_a::tps(blocks, period));

        let g = sweep.graph().report(3);
        let lg = txstat::core::graph::eos_transfer_graph(blocks, period).report(3);
        prop_assert_eq!(g.nodes, lg.nodes);
        prop_assert_eq!(g.unique_edges, lg.unique_edges);
        prop_assert_eq!(g.transfers, lg.transfers);
        prop_assert_eq!(g.out_degree_gini, lg.out_degree_gini);
        prop_assert_eq!(g.top_sinks, lg.top_sinks);
        prop_assert_eq!(g.top_sources, lg.top_sources);
        prop_assert_eq!(g.fanout_outliers, lg.fanout_outliers);
        Ok(())
    }

    proptest! {
        /// The columnar EOS sweep (interned ids, batched classification,
        /// remap merges) finalizes to the same outputs as every legacy
        /// per-exhibit scan.
        #[test]
        fn eos_columnar_equals_legacy_scans(spec in eos_strategy()) {
            let blocks = eos_blocks(&spec);
            let sweep = txstat::core::EosColumnar::compute(&blocks, window());
            assert_eos_equiv(&sweep, &blocks, window())?;
        }

        /// Columnar merge algebra: split-range remap merges at any pivot
        /// (and in commuted order) finalize to the whole-range result —
        /// even though the two sides' interners assign different ids.
        #[test]
        fn eos_columnar_merge_algebra(spec in eos_strategy(), pivot in 0usize..12) {
            use txstat::core::EosColumnar;
            let blocks = eos_blocks(&spec);
            let pivot = pivot.min(blocks.len());
            let fold = |range: &[Block]| {
                let mut acc = EosColumnar::new(window());
                for b in range {
                    acc.observe(b);
                }
                acc
            };
            let mut split = fold(&blocks[..pivot]);
            split.merge(fold(&blocks[pivot..]));
            assert_eos_equiv(&split.finalize(), &blocks, window())?;

            let mut commuted = fold(&blocks[pivot..]);
            commuted.merge(fold(&blocks[..pivot]));
            assert_eos_equiv(&commuted.finalize(), &blocks, window())?;

            let mut with_identity = EosColumnar::new(window());
            with_identity.merge(fold(&blocks));
            assert_eos_equiv(&with_identity.finalize(), &blocks, window())?;
        }
    }

    // ---- Tezos -------------------------------------------------------------

    /// Operation spec: (kind, source, peer).
    type TzSpec = (u8, u8, u8);

    fn tz_op((kind, src, peer): TzSpec) -> Operation {
        let source = Address::implicit(100 + src as u64);
        match kind % 6 {
            0 | 1 => Operation::new(source, OpPayload::Endorsement { level: 1, slots: 16 }),
            2 | 3 => Operation::new(
                source,
                OpPayload::Transaction {
                    destination: Address::implicit(200 + peer as u64),
                    amount_mutez: 1_000,
                },
            ),
            4 => Operation::new(
                source,
                OpPayload::Ballot {
                    proposal: "PsBabyM1".into(),
                    vote: match peer % 3 {
                        0 => Vote::Yay,
                        1 => Vote::Nay,
                        _ => Vote::Pass,
                    },
                },
            ),
            _ => Operation::new(
                source,
                OpPayload::Proposals { proposals: vec![format!("Prop{}", peer % 2)] },
            ),
        }
    }

    fn tz_blocks(spec: &[Vec<TzSpec>]) -> Vec<TezosBlock> {
        spec.iter()
            .enumerate()
            .map(|(i, ops)| TezosBlock {
                level: 100 + i as u64,
                time: block_time(i),
                baker: Address::implicit(1),
                operations: ops.iter().map(|s| tz_op(*s)).collect(),
            })
            .collect()
    }

    fn tz_periods() -> Vec<(PeriodKind, Period)> {
        // Two windows tiling the block-time range: proposals then promotion.
        let mid = t0() + 86_400;
        vec![
            (PeriodKind::Proposal, Period::new(t0() + -86_400, mid)),
            (PeriodKind::Promotion, Period::new(mid, t0() + 4 * 86_400)),
        ]
    }

    fn tz_rolls() -> std::collections::HashMap<Address, u64> {
        (0..8u64).map(|i| (Address::implicit(100 + i), 100 + i * 37)).collect()
    }

    fn assert_tz_equiv(
        sweep: &TezosSweep,
        blocks: &[TezosBlock],
        period: Period,
    ) -> Result<(), TestCaseError> {
        let (rows, total) = sweep.op_distribution();
        let (legacy_rows, legacy_total) = tz_a::op_distribution(blocks, period);
        prop_assert_eq!(total, legacy_total);
        let flat = |r: &[tz_a::OpRow]| -> Vec<(tz_a::TezosOpClass, String, u64)> {
            r.iter().map(|r| (r.class, format!("{:?}", r.kind), r.count)).collect()
        };
        prop_assert_eq!(flat(&rows), flat(&legacy_rows));

        let series = sweep.throughput_series();
        let legacy_series = tz_a::throughput_series(blocks, period);
        prop_assert_eq!(series.total(), legacy_series.total());
        prop_assert_eq!(series.out_of_range(), legacy_series.out_of_range());
        for cat in legacy_series.categories_sorted() {
            prop_assert_eq!(series.series_for(&cat), legacy_series.series_for(&cat));
        }

        let senders = sweep.top_senders(4);
        let legacy_senders = tz_a::top_senders(blocks, period, 4);
        prop_assert_eq!(senders.len(), legacy_senders.len());
        for (s, l) in senders.iter().zip(&legacy_senders) {
            prop_assert_eq!(s.sender, l.sender);
            prop_assert_eq!(s.sent_count, l.sent_count);
            prop_assert_eq!(s.unique_receivers, l.unique_receivers);
            // Welford accumulation order differs per HashMap instance; the
            // statistics agree to float tolerance.
            prop_assert!(close(s.mean_per_receiver, l.mean_per_receiver));
            prop_assert!(close(s.stdev_per_receiver, l.stdev_per_receiver));
        }

        let rolls = tz_rolls();
        let curves = sweep.governance_curves(&rolls);
        let legacy_curves = tz_a::governance_curves(blocks, &tz_periods(), &rolls);
        prop_assert_eq!(curves.len(), legacy_curves.len());
        for (c, l) in curves.iter().zip(&legacy_curves) {
            prop_assert_eq!(c.kind, l.kind);
            prop_assert_eq!(c.participation_pct, l.participation_pct);
            prop_assert_eq!(c.curves.len(), l.curves.len());
            for (cc, lc) in c.curves.iter().zip(&l.curves) {
                prop_assert_eq!(cc.label.clone(), lc.label.clone());
                prop_assert_eq!(cc.points.clone(), lc.points.clone());
            }
        }

        prop_assert_eq!(sweep.governance_op_count(), tz_a::governance_op_count(blocks, period));
        prop_assert_eq!(sweep.tps(), tz_a::tps(blocks, period));
        Ok(())
    }

    fn tz_strategy() -> impl Strategy<Value = Vec<Vec<TzSpec>>> {
        proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0u8..8, 0u8..8), 0..8),
            1..12,
        )
    }

    proptest! {
        /// The columnar Tezos sweep finalizes to the same outputs as every
        /// legacy per-exhibit scan, at any merge pivot.
        #[test]
        fn tezos_columnar_equals_legacy_scans(spec in tz_strategy(), pivot in 0usize..12) {
            use txstat::core::TezosColumnar;
            let blocks = tz_blocks(&spec);
            let sweep = TezosColumnar::compute(&blocks, window(), &tz_periods());
            assert_tz_equiv(&sweep, &blocks, window())?;

            let pivot = pivot.min(blocks.len());
            let fold = |range: &[TezosBlock]| {
                let mut acc = TezosColumnar::new(window(), tz_periods());
                for b in range {
                    acc.observe(b);
                }
                acc
            };
            let mut split = fold(&blocks[..pivot]);
            split.merge(fold(&blocks[pivot..]));
            assert_tz_equiv(&split.finalize(), &blocks, window())?;
        }

        /// Identity/split-merge algebra for the columnar Tezos sweep.
        #[test]
        fn tezos_merge_algebra(spec in tz_strategy(), pivot in 0usize..12) {
            use txstat::core::TezosColumnar;
            let blocks = tz_blocks(&spec);
            let pivot = pivot.min(blocks.len());
            let fold = |range: &[TezosBlock]| {
                let mut acc = TezosColumnar::new(window(), tz_periods());
                for b in range {
                    acc.observe(b);
                }
                acc
            };
            let mut with_identity = TezosColumnar::new(window(), tz_periods());
            with_identity.merge(fold(&blocks));
            assert_tz_equiv(&with_identity.finalize(), &blocks, window())?;

            let mut split = fold(&blocks[..pivot]);
            split.merge(fold(&blocks[pivot..]));
            assert_tz_equiv(&split.finalize(), &blocks, window())?;
        }
    }

    // ---- XRP ---------------------------------------------------------------

    /// Transaction spec: (kind, account, peer, whole-units).
    type XSpec = (u8, u8, u8, i64);

    fn oracle() -> RateOracle {
        let trades = vec![
            TradeRecord {
                time: t0(),
                currency: IssuedCurrency::new("USD", AccountId(1)),
                iou_value: 2 * IOU_UNIT,
                drops: 10 * DROPS_PER_XRP,
                maker: AccountId(1),
            },
            TradeRecord {
                time: t0() + 3_600,
                currency: IssuedCurrency::new("BTC", AccountId(2)),
                iou_value: IOU_UNIT,
                drops: 30_000 * DROPS_PER_XRP,
                maker: AccountId(2),
            },
        ];
        RateOracle::from_trades(&trades, ChainTime::from_ymd(2019, 10, 4), 30)
    }

    fn cluster() -> ClusterInfo {
        let mut c = ClusterInfo::new();
        c.insert(AccountId(10), Some("Binance".into()), None);
        c.insert(AccountId(11), None, Some(AccountId(10)));
        c.insert(AccountId(12), Some("Huobi".into()), None);
        c
    }

    fn x_tx((kind, account, peer, units): XSpec) -> AppliedTx {
        let account_id = AccountId(10 + account as u64);
        let dest = AccountId(10 + peer as u64);
        let applied = |payload, result: TxResult, delivered, crossed| AppliedTx {
            tx: txstat::xrp::Transaction::new(account_id, payload, 10),
            result,
            delivered,
            crossed,
        };
        match kind % 8 {
            0 | 1 => {
                let amt = Amount::xrp(units);
                applied(
                    TxPayload::Payment { destination: dest, amount: amt, send_max: None },
                    TxResult::Success,
                    Some(amt),
                    false,
                )
            }
            2 => {
                // Rated IOU payment (USD@1 has oracle value).
                let amt = Amount::iou_whole("USD", AccountId(1), units);
                applied(
                    TxPayload::Payment { destination: dest, amount: amt, send_max: None },
                    TxResult::Success,
                    Some(amt),
                    false,
                )
            }
            3 => {
                // Unrated IOU payment: nominal only.
                let amt = Amount::iou_whole("GKO", AccountId(9), units);
                applied(
                    TxPayload::Payment { destination: dest, amount: amt, send_max: None },
                    TxResult::Success,
                    Some(amt),
                    false,
                )
            }
            4 => applied(
                TxPayload::Payment {
                    destination: dest,
                    amount: Amount::xrp(units),
                    send_max: None,
                },
                TxResult::PathDry,
                None,
                false,
            ),
            5 | 6 => {
                let mut tx = applied(
                    TxPayload::OfferCreate {
                        gets: Amount::xrp(units),
                        pays: Amount::iou_whole("USD", AccountId(1), units / 5 + 1),
                    },
                    TxResult::Success,
                    None,
                    kind == 5,
                );
                if peer % 3 == 0 {
                    tx.tx.destination_tag = Some(104_398);
                }
                tx
            }
            _ => applied(TxPayload::SetRegularKey, TxResult::Success, None, false),
        }
    }

    fn x_blocks(spec: &[Vec<XSpec>]) -> Vec<LedgerBlock> {
        spec.iter()
            .enumerate()
            .map(|(i, txs)| LedgerBlock {
                index: 50_000 + i as u64,
                close_time: block_time(i),
                transactions: txs.iter().map(|s| x_tx(*s)).collect(),
            })
            .collect()
    }

    fn x_strategy() -> impl Strategy<Value = Vec<Vec<XSpec>>> {
        proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u8..6, 0u8..6, 1i64..500), 0..8),
            1..12,
        )
    }

    fn assert_x_equiv(
        sweep: &XrpSweep,
        blocks: &[LedgerBlock],
        period: Period,
    ) -> Result<(), TestCaseError> {
        let ora = oracle();
        let clu = cluster();

        let (rows, total) = sweep.tx_distribution();
        let (legacy_rows, legacy_total) = x_a::tx_distribution(blocks, period);
        prop_assert_eq!(total, legacy_total);
        let flat = |r: &[x_a::TxRow]| -> Vec<(x_a::XrpTxClass, String, u64)> {
            r.iter().map(|r| (r.class, format!("{:?}", r.tx_type), r.count)).collect()
        };
        prop_assert_eq!(flat(&rows), flat(&legacy_rows));

        let series = sweep.throughput_series();
        let legacy_series = x_a::throughput_series(blocks, period);
        prop_assert_eq!(series.total(), legacy_series.total());
        prop_assert_eq!(series.out_of_range(), legacy_series.out_of_range());
        for cat in legacy_series.categories_sorted() {
            prop_assert_eq!(series.series_for(&cat), legacy_series.series_for(&cat));
        }

        let f = sweep.funnel();
        let lf = x_a::funnel(blocks, period, &ora);
        for (mine, theirs) in [
            (f.total, lf.total),
            (f.failed, lf.failed),
            (f.successful, lf.successful),
            (f.payments, lf.payments),
            (f.payments_with_value, lf.payments_with_value),
            (f.payments_no_value, lf.payments_no_value),
            (f.offers, lf.offers),
            (f.offers_exchanged, lf.offers_exchanged),
            (f.offers_no_exchange, lf.offers_no_exchange),
            (f.others, lf.others),
        ] {
            prop_assert_eq!(mine, theirs);
        }

        let active = sweep.most_active(6, &clu);
        let legacy_active = x_a::most_active(blocks, period, 6, &clu);
        prop_assert_eq!(active.len(), legacy_active.len());
        for (a, l) in active.iter().zip(&legacy_active) {
            prop_assert_eq!(a.account, l.account);
            prop_assert_eq!(a.offer_creates, l.offer_creates);
            prop_assert_eq!(a.payments, l.payments);
            prop_assert_eq!(a.others, l.others);
            prop_assert_eq!(a.total, l.total);
            prop_assert_eq!(a.share_pct, l.share_pct);
            prop_assert_eq!(a.top_tag, l.top_tag);
            prop_assert_eq!(a.entity.clone(), l.entity.clone());
        }

        let flow = sweep.value_flow(&clu);
        let legacy_flow = x_a::value_flow(blocks, period, &ora, &clu);
        prop_assert!(close(flow.xrp_payment_volume, legacy_flow.xrp_payment_volume));
        prop_assert_eq!(flow.top_senders.len(), legacy_flow.top_senders.len());
        for (s, l) in flow.top_senders.iter().zip(&legacy_flow.top_senders) {
            prop_assert_eq!(s.0.clone(), l.0.clone());
            prop_assert!(close(s.1, l.1), "sender volume {} vs {}", s.1, l.1);
        }
        for (s, l) in flow.top_receivers.iter().zip(&legacy_flow.top_receivers) {
            prop_assert_eq!(s.0.clone(), l.0.clone());
            prop_assert!(close(s.1, l.1));
        }
        prop_assert_eq!(flow.currencies.len(), legacy_flow.currencies.len());
        for (c, l) in flow.currencies.iter().zip(&legacy_flow.currencies) {
            prop_assert_eq!(c.0.clone(), l.0.clone());
            prop_assert!(close(c.1, l.1));
            prop_assert!(close(c.2, l.2));
            prop_assert!(close(c.3, l.3));
        }

        prop_assert_eq!(
            sweep.payment_spike_buckets(3.0),
            x_a::payment_spike_buckets(blocks, period, 3.0)
        );

        let conc = sweep.concentration();
        let lconc = x_a::concentration(blocks, period);
        prop_assert_eq!(conc.accounts, lconc.accounts);
        prop_assert_eq!(conc.total_txs, lconc.total_txs);
        prop_assert_eq!(conc.single_tx_accounts, lconc.single_tx_accounts);
        prop_assert_eq!(conc.half_traffic_accounts, lconc.half_traffic_accounts);
        prop_assert_eq!(conc.mean_txs_per_account, lconc.mean_txs_per_account);
        prop_assert_eq!(conc.gini, lconc.gini);

        prop_assert_eq!(sweep.tps(), x_a::tps(blocks, period));

        let g = sweep.graph().report(3);
        let lg = txstat::core::graph::xrp_payment_graph(blocks, period).report(3);
        prop_assert_eq!(g.nodes, lg.nodes);
        prop_assert_eq!(g.unique_edges, lg.unique_edges);
        prop_assert_eq!(g.transfers, lg.transfers);
        prop_assert_eq!(g.top_sinks, lg.top_sinks);
        prop_assert_eq!(g.fanout_outliers, lg.fanout_outliers);
        Ok(())
    }

    proptest! {
        /// The columnar XRP sweep finalizes to the same outputs as every
        /// legacy per-exhibit scan, at any merge pivot.
        #[test]
        fn xrp_columnar_equals_legacy_scans(spec in x_strategy(), pivot in 0usize..12) {
            use txstat::core::XrpColumnar;
            let blocks = x_blocks(&spec);
            let ora = oracle();
            let sweep = XrpColumnar::compute(&blocks, window(), &ora);
            assert_x_equiv(&sweep, &blocks, window())?;

            let pivot = pivot.min(blocks.len());
            let fold = |range: &[LedgerBlock]| {
                let mut acc = XrpColumnar::new(window());
                for b in range {
                    acc.observe(b, &ora);
                }
                acc
            };
            let mut split = fold(&blocks[..pivot]);
            split.merge(fold(&blocks[pivot..]));
            assert_x_equiv(&split.finalize(), &blocks, window())?;
        }

        /// Identity/split-merge/commuted-merge algebra for the columnar XRP
        /// sweep.
        #[test]
        fn xrp_merge_algebra(spec in x_strategy(), pivot in 0usize..12) {
            use txstat::core::XrpColumnar;
            let blocks = x_blocks(&spec);
            let pivot = pivot.min(blocks.len());
            let ora = oracle();
            let fold = |range: &[LedgerBlock]| {
                let mut acc = XrpColumnar::new(window());
                for b in range {
                    acc.observe(b, &ora);
                }
                acc
            };
            let mut with_identity = XrpColumnar::new(window());
            with_identity.merge(fold(&blocks));
            assert_x_equiv(&with_identity.finalize(), &blocks, window())?;

            let mut split = fold(&blocks[..pivot]);
            split.merge(fold(&blocks[pivot..]));
            assert_x_equiv(&split.finalize(), &blocks, window())?;

            let mut commuted = fold(&blocks[pivot..]);
            commuted.merge(fold(&blocks[..pivot]));
            assert_x_equiv(&commuted.finalize(), &blocks, window())?;
        }
    }

    // ---- Streamed sharded ingestion ----------------------------------------
    //
    // The `txstat_ingest` path — blocks through bounded channels into
    // per-shard accumulators, shards merged in index order — must equal
    // both `par_sweep` over the materialized slice and the legacy
    // per-figure scans, for random shard counts and channel capacities.

    /// Stream `blocks` through a sharded pool and merge the shards.
    fn stream_sharded<B, A>(
        blocks: Vec<(u64, B)>,
        shards: usize,
        capacity: usize,
        identity: impl Fn() -> A + Send + Sync + 'static,
        observe: impl Fn(&mut A, u64, &B) + Send + Sync + 'static,
        merge: impl FnMut(&mut A, A),
    ) -> A
    where
        B: Send + 'static,
        A: Send + 'static,
    {
        use txstat::ingest::{spawn_sharded, BlockSource, IngestOptions, MemorySource};
        tokio::runtime::block_on(async move {
            let opts = IngestOptions { shards, channel_capacity: capacity, label: "" };
            let (sink, pool) = spawn_sharded(opts, identity, observe);
            let producer = tokio::spawn(MemorySource::new(blocks).produce(sink));
            let out = pool.finish().await;
            producer.await.expect("producer task").expect("memory source");
            out.merged(merge)
        })
    }

    proptest! {
        /// EOS: streamed sharded ingestion == par_sweep == legacy scans.
        #[test]
        fn eos_streamed_equals_sweep_and_legacy(
            spec in eos_strategy(),
            shards in 1usize..5,
            capacity in 1usize..8,
        ) {
            let blocks = eos_blocks(&spec);
            let whole = EosColumnar::compute(&blocks, window());
            let streamed = stream_sharded(
                blocks.iter().map(|b| (b.num, b.clone())).collect(),
                shards,
                capacity,
                move || EosColumnar::new(window()),
                |acc: &mut EosColumnar, _n, b: &Block| acc.observe(b),
                |a, b| a.merge(b),
            )
            .finalize();
            // == the legacy per-figure scans (full equivalence battery).
            assert_eos_equiv(&streamed, &blocks, window())?;
            // == par_sweep over the materialized slice, on the figure outputs.
            prop_assert_eq!(streamed.tps(), whole.tps());
            let (srows, stotal) = streamed.action_distribution();
            let (wrows, wtotal) = whole.action_distribution();
            prop_assert_eq!(stotal, wtotal);
            let flat = |r: &[eos_a::ActionRow]| -> Vec<(eos_a::EosActionClass, String, u64)> {
                r.iter().map(|r| (r.class, r.action.clone(), r.count)).collect()
            };
            prop_assert_eq!(flat(&srows), flat(&wrows));
        }

        /// XRP: streamed sharded ingestion (oracle-valued observes) ==
        /// par_sweep == legacy scans.
        #[test]
        fn xrp_streamed_equals_sweep_and_legacy(
            spec in x_strategy(),
            shards in 1usize..5,
            capacity in 1usize..8,
        ) {
            let blocks = x_blocks(&spec);
            let ora = oracle();
            let whole = XrpColumnar::compute(&blocks, window(), &ora);
            let shard_ora = oracle();
            let streamed = stream_sharded(
                blocks.iter().map(|b| (b.index, b.clone())).collect(),
                shards,
                capacity,
                move || XrpColumnar::new(window()),
                move |acc: &mut XrpColumnar, _n, b: &LedgerBlock| acc.observe(b, &shard_ora),
                |a, b| a.merge(b),
            )
            .finalize();
            assert_x_equiv(&streamed, &blocks, window())?;
            prop_assert_eq!(streamed.tps(), whole.tps());
            let f = streamed.funnel();
            let wf = whole.funnel();
            prop_assert_eq!(f.total, wf.total);
            prop_assert_eq!(f.payments_with_value, wf.payments_with_value);
        }

        /// Tezos: streamed sharded ingestion == legacy scans.
        #[test]
        fn tezos_streamed_equals_legacy(
            spec in tz_strategy(),
            shards in 1usize..5,
            capacity in 1usize..8,
        ) {
            let blocks = tz_blocks(&spec);
            let streamed = stream_sharded(
                blocks.iter().map(|b| (b.level, b.clone())).collect(),
                shards,
                capacity,
                move || TezosColumnar::new(window(), tz_periods()),
                |acc: &mut TezosColumnar, _n, b: &TezosBlock| acc.observe(b),
                |a, b| a.merge(b),
            )
            .finalize();
            assert_tz_equiv(&streamed, &blocks, window())?;
        }

        /// Incremental re-sweep groundwork: a range-keyed checkpoint of the
        /// shard states, extended with only the tail, equals the full sweep.
        #[test]
        fn eos_checkpoint_tail_equals_full_sweep(
            spec in eos_strategy(),
            pivot in 0usize..12,
            shards in 1usize..4,
        ) {
            let blocks = eos_blocks(&spec);
            let pivot = pivot.min(blocks.len());
            let mut cp = txstat::ingest::Checkpoint {
                shards: vec![EosColumnar::new(window()); shards],
                counts: vec![0; shards],
                low: 1,
                high: 0,
                marks: vec![],
            };
            let observe = |a: &mut EosColumnar, _n: u64, b: &&Block| a.observe(b);
            cp.observe_tail(blocks[..pivot].iter().map(|b| (b.num, b)), observe)
                .expect("prefix is ascending");
            // Appending the tail re-observes only the new blocks.
            cp.observe_tail(blocks[pivot..].iter().map(|b| (b.num, b)), observe)
                .expect("tail extends the range");
            prop_assert_eq!(cp.observed(), blocks.len() as u64);
            let merged = cp.merged(|a, b| a.merge(b)).finalize();
            assert_eos_equiv(&merged, &blocks, window())?;
            // Re-observing the prefix is rejected (would double-count).
            if !blocks.is_empty() {
                prop_assert!(cp
                    .observe_tail([(blocks[0].num, &blocks[0])], observe)
                    .is_err());
            }
        }
    }

    /// The sweep result is identical at any rayon worker count.
    #[test]
    fn sweeps_are_thread_count_invariant() {
        let spec: Vec<Vec<Vec<EosSpec>>> = (0..10)
            .map(|i| {
                (0..4)
                    .map(|j| {
                        (0..3).map(|k| ((i + j + k) as u8, i as u8, j as u8, 7 + k as i64)).collect()
                    })
                    .collect()
            })
            .collect();
        let blocks = eos_blocks(&spec);
        let at = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| EosColumnar::compute(&blocks, window()))
        };
        let base = at(1);
        for threads in [2, 4, 8] {
            let other = at(threads);
            assert_eq!(
                base.action_distribution().1,
                other.action_distribution().1,
                "{threads} threads"
            );
            let curated = eos_a::EosLabels::curated();
            let labels = base.labels(100, &|n| curated.get(n));
            let s1 = base.throughput_series(&labels);
            let s2 = other.throughput_series(&other.labels(100, &|n| curated.get(n)));
            for cat in s1.categories_sorted() {
                assert_eq!(s1.series_for(&cat), s2.series_for(&cat));
            }
            assert_eq!(base.boomerang_report().boomerangs, other.boomerang_report().boomerangs);
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar-engine primitives: the interner round-trip and the merge-algebra
// laws of the id-indexed accumulators behind the columnar sweeps.
// ---------------------------------------------------------------------------

mod columnar_laws {
    use proptest::prelude::*;
    use txstat::core::columnar::tables::{IdVec, PairTable};
    use txstat::eos::Name;
    use txstat::types::intern::Interner;

    proptest! {
        /// Interner round-trip: name → id → name is the identity, ids are
        /// dense and stable on re-intern.
        #[test]
        fn interner_round_trip(names in proptest::collection::vec("[a-z1-5.]{1,12}", 1..80)) {
            let parsed: Vec<Name> = names.iter().map(|s| Name::parse(s).expect("valid")).collect();
            let mut interner: Interner<Name> = Interner::new();
            let ids: Vec<u32> = parsed.iter().map(|n| interner.intern(*n)).collect();
            prop_assert!(interner.len() <= parsed.len());
            for (n, id) in parsed.iter().zip(&ids) {
                prop_assert_eq!(interner.resolve(*id), *n, "resolve inverts intern");
                prop_assert_eq!(interner.get(*n), Some(*id), "get agrees");
                prop_assert!((*id as usize) < interner.len(), "ids are dense");
            }
            // Re-interning the whole stream assigns the same ids.
            let again: Vec<u32> = parsed.iter().map(|n| interner.intern(*n)).collect();
            prop_assert_eq!(ids, again);
        }

        /// Absorb law: the remap table maps every id of the absorbed
        /// interner onto an id resolving to the same key.
        #[test]
        fn interner_absorb_preserves_keys(
            left in proptest::collection::vec(0u64..40, 0..60),
            right in proptest::collection::vec(0u64..40, 0..60),
        ) {
            let mut a: Interner<u64> = Interner::new();
            left.iter().for_each(|k| { a.intern(*k); });
            let mut b: Interner<u64> = Interner::new();
            right.iter().for_each(|k| { b.intern(*k); });
            let before = a.len();
            let remap = a.absorb(&b);
            prop_assert_eq!(remap.len(), b.len());
            for (oid, nid) in remap.iter().enumerate() {
                prop_assert_eq!(a.resolve(*nid), b.resolve(oid as u32));
            }
            prop_assert!(a.len() >= before);
        }

        /// IdVec merge laws: split folds merged (same-interner vector add)
        /// equal the whole fold, in either merge order.
        #[test]
        fn idvec_merge_equals_whole(
            events in proptest::collection::vec((0u32..50, 1u64..9), 1..120),
            pivot in 0usize..120,
        ) {
            let pivot = pivot.min(events.len());
            let fold = |evs: &[(u32, u64)]| {
                let mut v: IdVec<u64> = IdVec::new();
                evs.iter().for_each(|(id, n)| v.add(*id, *n));
                v
            };
            let whole = fold(&events);
            let mut split = fold(&events[..pivot]);
            split.merge(&fold(&events[pivot..]));
            let mut commuted = fold(&events[pivot..]);
            commuted.merge(&fold(&events[..pivot]));
            let flat = |v: &IdVec<u64>| v.iter_nonzero().collect::<Vec<_>>();
            prop_assert_eq!(flat(&split), flat(&whole));
            prop_assert_eq!(flat(&commuted), flat(&whole));
        }

        /// PairTable merge laws: residue-sharded pair counters merged from
        /// split folds equal the whole fold, and an identity remap merge
        /// equals the plain merge.
        #[test]
        fn pair_table_merge_equals_whole(
            events in proptest::collection::vec((0u32..40, 0u32..40, 1u64..5), 1..120),
            pivot in 0usize..120,
        ) {
            let pivot = pivot.min(events.len());
            let fold = |evs: &[(u32, u32, u64)]| {
                let mut t = PairTable::new();
                evs.iter().for_each(|(a, b, n)| t.add(*a, *b, *n));
                t
            };
            let whole = fold(&events);
            let mut split = fold(&events[..pivot]);
            split.merge(&fold(&events[pivot..]));
            let mut remapped = fold(&events[..pivot]);
            remapped.merge_remap(&fold(&events[pivot..]), |a| a, |b| b);
            let flat = |t: &PairTable| {
                let mut v: Vec<(u32, u32, u64)> = t.iter().collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(flat(&split), flat(&whole));
            prop_assert_eq!(flat(&remapped), flat(&whole));
        }
    }
}

#[test]
fn chaintime_bucket_index_is_monotonic() {
    let origin = ChainTime::from_ymd(2019, 10, 1);
    let mut prev = i64::MIN;
    for s in (-100_000..100_000).step_by(977) {
        let idx = (origin + s).bucket_index(origin, SIX_HOURS);
        assert!(idx >= prev);
        prev = idx;
    }
}
