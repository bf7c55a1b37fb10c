//! The behaviour of the third-party crates that the ipa crates and the
//! harness rely on, written down from the published crates' documented
//! behaviour. `run.sh` builds against the published crates where cargo has
//! them and against the stand-ins in `standins/` where it has not; this
//! file runs against whichever build is in use and must pass on both, which
//! is what lets results of one kind be read as results of the system.
//!
//! Known differences it leaves out (README.md, "Third-party crates"): the
//! text of floats between 1e16 and 1e21, the stream of `StdRng`, and
//! `bounded(0)`, a rendezvous in crossbeam and a queue of one here.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::{Buf, BufMut, BytesMut};
use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, TryRecvError};
use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    id: u64,
    weight: f64,
    label: String,
    tags: Vec<String>,
    note: Option<String>,
    pair: (i32, bool),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u32),
    Tuple(u32, String),
    Struct { a: u8, b: Option<f64> },
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
enum Mode {
    FastPath,
    Slow,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Policy {
    WorkQueue,
    Static,
}

fn seven() -> u32 {
    7
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Knobs {
    name: String,
    #[serde(default)]
    depth: u32,
    #[serde(default = "seven")]
    width: u32,
    note: Option<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapper(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u32, String);

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// A value reads back from its own text. A macro, because the published
/// `Deserialize` carries a lifetime and the stand-in's does not: no bound
/// can name both.
macro_rules! round_trip {
    ($t:ty, $value:expr) => {{
        let value: $t = $value;
        let text = json(&value);
        let back: $t = serde_json::from_str(&text).expect("its own output parses");
        assert_eq!(back, value, "{text}");
    }};
}

#[test]
fn json_text_of_structs_and_enums() {
    let record = Record {
        id: u64::MAX,
        weight: -2.5,
        label: "a\"b\\c\n\u{1}é/".into(),
        tags: vec!["t".into()],
        note: None,
        pair: (-3, true),
    };
    assert_eq!(
        json(&record),
        r#"{"id":18446744073709551615,"weight":-2.5,"label":"a\"b\\c\n\u0001é/","tags":["t"],"note":null,"pair":[-3,true]}"#
    );
    round_trip!(Record, record);

    assert_eq!(json(&Shape::Unit), r#""Unit""#);
    assert_eq!(json(&Shape::Newtype(7)), r#"{"Newtype":7}"#);
    assert_eq!(json(&Shape::Tuple(1, "s".into())), r#"{"Tuple":[1,"s"]}"#);
    assert_eq!(
        json(&Shape::Struct { a: 1, b: Some(0.5) }),
        r#"{"Struct":{"a":1,"b":0.5}}"#
    );
    for shape in [
        Shape::Unit,
        Shape::Newtype(7),
        Shape::Tuple(1, "s".into()),
        Shape::Struct { a: 1, b: None },
    ] {
        round_trip!(Shape, shape);
    }

    assert_eq!(json(&Mode::FastPath), r#""fastpath""#);
    assert_eq!(json(&Policy::WorkQueue), r#""work_queue""#);
    round_trip!(Mode, Mode::Slow);
    round_trip!(Policy, Policy::Static);

    assert_eq!(json(&Wrapper(3)), "3");
    assert_eq!(json(&Pair(3, "x".into())), r#"[3,"x"]"#);
    round_trip!(Wrapper, Wrapper(3));
    round_trip!(Pair, Pair(3, "x".into()));
}

#[test]
fn json_text_of_numbers_and_containers() {
    for (value, text) in [
        (0.0, "0.0"),
        (1.0, "1.0"),
        (0.1, "0.1"),
        (-2.5, "-2.5"),
        (123456789.125, "123456789.125"),
        (1e-7, "1e-7"),
        (1e21, "1e21"),
        (1e300, "1e300"),
        (f64::MAX, "1.7976931348623157e308"),
    ] {
        assert_eq!(json(&value), text);
        assert_eq!(serde_json::from_str::<f64>(text).expect("parses"), value);
    }
    // Where the two builds write a float differently, both read it back.
    for value in [1e17, 2.5e19] {
        let back: f64 = serde_json::from_str(&json(&value)).expect("parses");
        assert_eq!(back, value);
    }
    assert_eq!(json(&f64::NAN), "null");
    assert_eq!(json(&f64::INFINITY), "null");
    assert_eq!(json(&i64::MIN), "-9223372036854775808");
    assert_eq!(
        serde_json::from_str::<f64>("3").expect("an integer is a float"),
        3.0
    );

    let map: BTreeMap<u32, String> = [(1, "a".to_string()), (20, "b".to_string())].into();
    assert_eq!(json(&map), r#"{"1":"a","20":"b"}"#);
    round_trip!(BTreeMap<u32, String>, map);
    let named: BTreeMap<String, Vec<f64>> = [("x".to_string(), vec![1.0, 2.0])].into();
    assert_eq!(json(&named), r#"{"x":[1.0,2.0]}"#);
    round_trip!(BTreeMap<String, Vec<f64>>, named);
    assert_eq!(json(&Vec::<u8>::new()), "[]");
    assert_eq!(json(&Some(1u8)), "1");
    assert_eq!(json(&Duration::new(1, 500)), r#"{"secs":1,"nanos":500}"#);
    round_trip!(Duration, Duration::new(1, 500));
}

#[test]
fn json_reading_rules() {
    // Whitespace anywhere, fields in any order, unknown fields ignored, a
    // missing `Option` is `None`, `default` fills what is missing.
    let knobs: Knobs =
        serde_json::from_str(" { \"extra\" : [1, {\"deep\": null}], \"name\" : \"n\" } ")
            .expect("parses");
    assert_eq!(
        knobs,
        Knobs {
            name: "n".into(),
            depth: 0,
            width: 7,
            note: None
        }
    );
    let knobs: Knobs =
        serde_json::from_str(r#"{"width":1,"depth":2,"note":"x","name":"n"}"#).expect("parses");
    assert_eq!(
        (knobs.width, knobs.depth, knobs.note.as_deref()),
        (1, 2, Some("x"))
    );

    let missing = serde_json::from_str::<Knobs>(r#"{"depth":2}"#).expect_err("name is required");
    assert!(
        missing.to_string().contains("missing field `name`"),
        "{missing}"
    );
    assert!(
        serde_json::from_str::<u32>("1 x").is_err(),
        "trailing characters"
    );
    assert!(serde_json::from_str::<u32>("-1").is_err());
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<Shape>(r#""Nope""#).is_err());
    assert!(serde_json::from_str::<Vec<u32>>("[1,2").is_err());
    assert!(
        serde_json::from_slice::<String>(b"\"\xff\"").is_err(),
        "invalid UTF-8"
    );

    let text: String = serde_json::from_str(r#""é😀\/\b\f\t""#).expect("parses");
    assert_eq!(text, "é😀/\u{8}\u{c}\t");
    assert_eq!(
        serde_json::from_slice::<Vec<u32>>(b"[1, 2]").expect("parses"),
        [1, 2]
    );
    assert_eq!(serde_json::to_vec(&[1u8, 2]).expect("serializes"), b"[1,2]");
}

#[test]
fn json_pretty_text() {
    let knobs = Knobs {
        name: "n".into(),
        depth: 1,
        width: 2,
        note: None,
    };
    assert_eq!(
        serde_json::to_string_pretty(&knobs).expect("serializes"),
        "{\n  \"name\": \"n\",\n  \"depth\": 1,\n  \"width\": 2,\n  \"note\": null\n}"
    );
    let nested: BTreeMap<String, Vec<u8>> =
        [("a:,".to_string(), vec![]), ("b".to_string(), vec![1, 2])].into();
    assert_eq!(
        serde_json::to_string_pretty(&nested).expect("serializes"),
        "{\n  \"a:,\": [],\n  \"b\": [\n    1,\n    2\n  ]\n}"
    );
}

#[test]
fn channel_order_and_disconnection() {
    let (tx, rx) = unbounded();
    let tx2 = tx.clone();
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    assert!(rx.is_empty());
    tx.send(1).expect("a receiver lives");
    tx2.send(2).expect("a receiver lives");
    tx.send(3).expect("a receiver lives");
    assert_eq!(rx.len(), 3);
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.try_iter().collect::<Vec<_>>(), [2, 3]);
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(5)),
        Err(RecvTimeoutError::Timeout)
    );

    // What was sent before the last sender went is still delivered.
    tx.send(4).expect("a receiver lives");
    drop((tx, tx2));
    assert_eq!(rx.recv(), Ok(4));
    assert!(rx.recv().is_err());
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(5)),
        Err(RecvTimeoutError::Disconnected)
    );

    // A send with no receiver left hands the value back.
    let (tx, rx) = unbounded();
    drop(rx);
    assert_eq!(tx.send(5).expect_err("no receiver").0, 5);

    // Receivers can be cloned: each message goes to one of them.
    let (tx, rx) = unbounded();
    let rx2 = rx.clone();
    tx.send(6).expect("a receiver lives");
    drop(rx);
    assert_eq!(rx2.recv(), Ok(6));

    // `iter` ends when the senders are gone.
    let (tx, rx) = unbounded();
    let producer = thread::spawn(move || (0..100).for_each(|i| tx.send(i).expect("receiver")));
    assert_eq!(rx.iter().sum::<i32>(), 4950);
    producer.join().expect("producer ends");
}

#[test]
fn bounded_channel_holds_senders_back() {
    let (tx, rx) = bounded(2);
    let producer = thread::spawn(move || (0..5).for_each(|i| tx.send(i).expect("receiver")));
    // The producer cannot run ahead of the capacity.
    thread::sleep(Duration::from_millis(50));
    assert_eq!(rx.len(), 2);
    assert_eq!(rx.iter().collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
    producer.join().expect("producer ends");

    // A sender blocked on a full queue is released when the receiver goes.
    let (tx, rx) = bounded(1);
    tx.send(0).expect("a receiver lives");
    let blocked = thread::spawn(move || tx.send(1));
    thread::sleep(Duration::from_millis(20));
    drop(rx);
    assert!(blocked.join().expect("sender ends").is_err());
}

#[test]
fn locks_do_not_poison() {
    let lock = Arc::new(Mutex::new(1));
    {
        let held = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(held);
    }
    *lock.try_lock().expect("free") += 1;
    let poisoner = Arc::clone(&lock);
    let died = thread::spawn(move || {
        let _held = poisoner.lock();
        panic!("dies holding the lock");
    })
    .join();
    assert!(died.is_err());
    assert_eq!(*lock.lock(), 2);
    let mut owned = Mutex::new(5);
    *owned.get_mut() += 1;
    assert_eq!(owned.into_inner(), 6);

    let shared = RwLock::new(vec![1]);
    {
        let (a, b) = (shared.read(), shared.read());
        assert_eq!(a.len() + b.len(), 2);
    }
    shared.write().push(2);
    assert_eq!(shared.into_inner(), [1, 2]);
}

#[test]
fn condvar_wakes_and_times_out() {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    {
        let mut flag = pair.0.lock();
        assert!(pair
            .1
            .wait_for(&mut flag, Duration::from_millis(5))
            .timed_out());
    }
    let waker = Arc::clone(&pair);
    let setter = thread::spawn(move || {
        *waker.0.lock() = true;
        waker.1.notify_all();
    });
    let mut flag = pair.0.lock();
    while !*flag {
        pair.1.wait(&mut flag);
    }
    drop(flag);
    setter.join().expect("setter ends");
}

#[test]
fn little_endian_buffers() {
    let mut buf = BytesMut::with_capacity(8);
    assert!(buf.is_empty());
    buf.put_u8(0xab);
    buf.put_u16_le(0x0102);
    buf.put_u32_le(0xdead_beef);
    buf.put_u64_le(u64::MAX - 1);
    buf.put_i32_le(-2);
    buf.put_i64_le(i64::MIN);
    buf.put_f32_le(1.5);
    buf.put_f64_le(-0.25);
    buf.put_slice(b"xyz");
    buf.extend_from_slice(b"!");
    assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 4 + 8 + 4 + 8 + 3 + 1);
    assert_eq!(&buf[..3], [0xab, 0x02, 0x01]);

    let bytes = buf.to_vec();
    let mut rest: &[u8] = &bytes;
    assert_eq!(rest.get_u8(), 0xab);
    assert_eq!(rest.get_u16_le(), 0x0102);
    assert_eq!(rest.get_u32_le(), 0xdead_beef);
    assert_eq!(rest.get_u64_le(), u64::MAX - 1);
    assert_eq!(rest.get_i32_le(), -2);
    assert_eq!(rest.get_i64_le(), i64::MIN);
    assert_eq!(rest.get_f32_le(), 1.5);
    assert_eq!(rest.get_f64_le(), -0.25);
    assert_eq!(rest.remaining(), 4);
    let mut word = [0u8; 3];
    rest.copy_to_slice(&mut word);
    assert_eq!(&word, b"xyz");
    rest.advance(1);
    assert!(!rest.has_remaining());

    let mut plain: Vec<u8> = Vec::new();
    plain.put_u32_le(1);
    assert_eq!(plain, [1, 0, 0, 0]);
    buf.clear();
    assert!(buf.is_empty());
}

#[test]
fn seeded_generator_repeats_and_stays_in_range() {
    let stream = |seed: u64| -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..8).map(|_| rng.random::<u64>()).collect()
    };
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));

    let mut rng = StdRng::seed_from_u64(1);
    let (mut sum, mut heads, n) = (0.0, 0, 20_000);
    for _ in 0..n {
        let x: f64 = rng.random();
        assert!((0.0..1.0).contains(&x));
        sum += x;
        heads += usize::from(rng.random_bool(0.25));
        let below: u32 = rng.random_range(10..20);
        let within: i64 = rng.random_range(-3..=3);
        let real: f64 = rng.random_range(0.5..2.0);
        assert!((10..20).contains(&below) && (-3..=3).contains(&within));
        assert!((0.5..2.0).contains(&real));
    }
    assert!(
        (sum / n as f64 - 0.5).abs() < 0.02,
        "mean {}",
        sum / n as f64
    );
    assert!(
        (heads as f64 / n as f64 - 0.25).abs() < 0.02,
        "heads {heads}"
    );
    let all: Vec<usize> = (0..2000).map(|_| rng.random_range(0..4usize)).collect();
    assert!((0..4).all(|v| all.contains(&v)));
}
