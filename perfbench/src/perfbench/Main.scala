package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.SparkSession
import repro.benchmark.BenchConfig
import repro.exp.BenchWorld
import repro.synth.SynthConfig

/** Input scale of a run. `perf` is the benchmark's own; `tiny` is the
  * smoke-test scale; `bench` is the scale of the stored paper tables
  * (too slow for the timed benchmark, used to check the harness against
  * `bench/bench-results`).
  */
final case class Scale(name: String, synth: SynthConfig, benches: Seq[(String, BenchConfig)],
                       partitions: Int)

object Scale {
  /** The three BenchWorld extractions, with dev/test sizes divided by `div`
    * so that every split stays non-empty at the smaller world sizes.
    */
  private def benches(div: Int): Seq[(String, BenchConfig)] =
    Seq("img" -> BenchWorld.imgConfig, "b500" -> BenchWorld.b500Config, "b500l" -> BenchWorld.b500LConfig)
      .map { case (k, c) => k -> c.copy(nDev = math.max(1, c.nDev / div), nTest = math.max(1, c.nTest / div)) }

  def apply(name: String, seed: Long): Scale = name match {
    case "perf" => Scale(name, SynthConfig.bench.copy(nProducts = 3000, seed = seed), benches(10), 4)
    case "tiny" => Scale(name, SynthConfig.tiny.copy(seed = seed), benches(50), 4)
    case "bench" => Scale(name, SynthConfig.bench.copy(seed = seed), benches(1), 64)
    case other => sys.error(s"unknown scale: $other")
  }
}

/** Runs ops, keeping each one's value for later ops and its outcome. */
final class Ops {
  private val errors = ArrayBuffer[(String, String)]()
  val names = ArrayBuffer[String]()
  val seconds = scala.collection.mutable.Map[String, Double]()

  def apply[A](name: String)(body: => A): Option[A] = {
    names += name
    val t0 = System.nanoTime()
    val result = Try(body)
    seconds(name) = (System.nanoTime() - t0) / 1e9
    result match {
      case Success(a) => Some(a)
      case Failure(e) => errors += name -> e.toString; None
    }
  }

  /** An op whose input came from an earlier op; it fails if that did. */
  def after[I, A](name: String, input: Option[I])(body: I => A): Option[A] = input match {
    case Some(i) => apply(name)(body(i))
    case None => names += name; errors += name -> "input op failed"; None
  }

  def error(name: String): Option[String] = errors.find(_._1 == name).map(_._2)
}

/** One workload: a repeatable set-up step, then a timed pass of ops whose
  * outputs are checked after the clock stops.
  */
trait Workload {
  /** One-off preparation before the repeated set-up step (not repeated). */
  def prepare(): Unit = ()
  def setupStep(): Unit
  /** Runs the ops; returns the post-pass check, which is not timed. */
  def pass(ops: Ops): () => (Map[String, Map[String, Any]], Map[String, Boolean])
  /** Per-layer metrics of the traced pass. */
  def layers(): Map[String, Double]
}

object Main {
  private val setupReps = 3

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = opt("workload")
    val seed = opt.getOrElse("seed", "42").toLong
    val seconds = opt.getOrElse("seconds", "10").toDouble
    val trace = opt.getOrElse("trace", "0") == "1"
    val scale = Scale(opt.getOrElse("scale", "perf"), seed)
    val threads = math.min(4, Runtime.getRuntime.availableProcessors)

    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName(s"perfbench-$workload")
      // Partitioning is pinned, not taken from the core count, so that
      // outputs (and the recorded references) do not depend on the machine.
      .config("spark.default.parallelism", 4)
      .config("spark.sql.shuffle.partitions", scale.partitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    val tracer = new Tracer(spark.sparkContext, trace)
    val origin = System.nanoTime()

    val w: Workload = workload match {
      case "construct" => new Construct(spark, scale, tracer)
      case "learn" => new Learn(spark, scale, tracer)
      case other => sys.error(s"unknown workload: $other")
    }

    // Set-up: everything from JVM start until the timed passes begin, with
    // the repeated step counted once, at its median. Only the last
    // repetition is traced.
    w.prepare()
    val steps = (1 to setupReps).map { i =>
      tracer.paused = i < setupReps
      val t0 = System.nanoTime(); w.setupStep(); (System.nanoTime() - t0) / 1e9
    }
    tracer.paused = false
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val setup = (System.currentTimeMillis() - jvmStart) / 1e3 - steps.sum + median(steps)

    // Closed loop of whole passes until `seconds` of pass time (one pass
    // when tracing, so per-layer sums are per pass).
    val passes = ArrayBuffer[Map[String, Any]]()
    var measured, gc = 0.0
    while (passes.isEmpty || (!trace && measured < seconds)) {
      val ops = new Ops
      val (cpu0, gc0) = (JvmProbe.cpuSeconds, JvmProbe.gcSeconds)
      val t0 = System.nanoTime()
      val check = tracer.span("pass")(w.pass(ops))
      val wall = (System.nanoTime() - t0) / 1e9
      val cpu = JvmProbe.cpuSeconds - cpu0
      gc += JvmProbe.gcSeconds - gc0
      measured += wall
      val (fps, invariants) = check()
      passes += Map("wall_s" -> wall, "cpu_s" -> cpu, "invariants" -> invariants,
        "ops" -> ops.names.map(n => Map("name" -> n, "error" -> ops.error(n),
          "seconds" -> ops.seconds.getOrElse(n, 0.0), "fingerprint" -> fps.getOrElse(n, Map.empty))).toSeq)
    }
    val heapLive = JvmProbe.liveHeapMb()

    val out = Map[String, Any]("workload" -> workload, "seed" -> seed, "scale" -> scale.name,
      "setup_s" -> setup, "setup_steps_s" -> steps,
      "heap_live_mb" -> heapLive, "gc_s" -> gc, "passes" -> passes.toSeq)
    val traced = if (!trace) Map.empty[String, Any] else {
      tracer.drain()
      opt.get("spans").foreach { p =>
        Files.createDirectories(Paths.get(p).toAbsolutePath.getParent)
        Files.write(Paths.get(p), Json(Map("workload" -> workload, "seed" -> seed,
          "spans" -> tracer.records(origin))).getBytes("UTF-8"))
      }
      Map("layers" -> (w.layers() + ("jvm.gc_s" -> gc)))
    }
    println("PERFBENCH " + Json(out ++ traced))
    spark.stop()
  }
}
