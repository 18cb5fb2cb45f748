package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler._

/** One timed call into a layer: name, start, end and the span that
  * caused it. Times are nanoseconds of `System.nanoTime`.
  */
final class Span(val id: Int, val name: String, val parent: Int, val start: Long) {
  var end: Long = -1L
  def seconds: Double = (end - start) / 1e9
}

/** Spark job intervals and shuffle bytes, keyed by the job group that the
  * tracer sets around each span (the group is the span id).
  */
final class JobListener extends SparkListener {
  final class Job(val group: Int, val start: Long) { @volatile var end: Long = -1L }
  val jobs = new ConcurrentHashMap[Int, Job]()
  private val stageGroup = new ConcurrentHashMap[Int, Int]()
  private val shuffle = new ConcurrentHashMap[Int, java.lang.Long]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    g.flatMap(_.toIntOption).foreach { group =>
      jobs.put(e.jobId, new Job(group, e.time))
      e.stageIds.foreach(stageGroup.put(_, group))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobs.get(e.jobId)).foreach(_.end = e.time)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val g = stageGroup.get(e.stageId)
    if (g != null && e.taskMetrics != null)
      shuffle.merge(g, e.taskMetrics.shuffleWriteMetrics.bytesWritten, (a, b) => a + b)
  }

  def shuffleBytes(group: Int): Long = Option(shuffle.get(group)).map(_.longValue).getOrElse(0L)
}

/** In-memory span recorder. Disabled, `span` only runs its body. */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  val spans = ArrayBuffer[Span]()
  /** While paused, `span` only runs its body. */
  @volatile var paused = false
  private var stack = List.empty[Span]
  private val listener = new JobListener
  if (enabled) sc.addSparkListener(listener)

  def span[A](name: String)(body: => A): A =
    if (!enabled || paused) body
    else {
      val s = new Span(spans.size, name, stack.headOption.map(_.id).getOrElse(-1), System.nanoTime())
      spans += s
      stack = s :: stack
      sc.setJobGroup(s.id.toString, name)
      try body
      finally {
        s.end = System.nanoTime()
        stack = stack.tail
        stack.headOption match {
          case Some(p) => sc.setJobGroup(p.id.toString, p.name)
          case None => sc.clearJobGroup()
        }
      }
    }

  /** Wait until Spark has delivered every job and task event so far. */
  def drain(): Unit = if (enabled) PerfbenchBus.drain(sc)

  private def subtree(s: Span): Set[Int] = {
    val kids = spans.filter(_.parent == s.id)
    kids.flatMap(subtree).toSet + s.id
  }

  /** Seconds covered by the union of the Spark jobs run inside `s`. */
  def sparkJobSeconds(s: Span): Double = {
    val ids = subtree(s)
    val iv = listener.jobs.values.asScala.filter(j => ids.contains(j.group) && j.end >= 0)
      .map(j => (j.start, j.end)).toSeq.sortBy(_._1)
    var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
    iv.foreach { case (a, b) =>
      if (a > curE) { if (curE > curS) total += curE - curS; curS = a; curE = b }
      else curE = math.max(curE, b)
    }
    if (curE > curS) total += curE - curS
    total / 1e3
  }

  def shuffleMb(s: Span): Double = subtree(s).toSeq.map(listener.shuffleBytes).sum / 1e6

  /** Span duration minus the part of it its child spans cover. */
  def selfSeconds(s: Span): Double = s.seconds - spans.filter(_.parent == s.id).map(_.seconds).sum

  /** The span called `name`, or with a trailing dot every span under it. */
  def named(name: String): Seq[Span] =
    spans.filter(s => s.name == name || (name.endsWith(".") && s.name.startsWith(name))).toSeq

  def seconds(name: String): Double = named(name).map(_.seconds).sum
  def sparkJobSeconds(name: String): Double = named(name).map(sparkJobSeconds).sum
  def shuffleMb(name: String): Double = named(name).map(shuffleMb).sum

  /** Every span as a JSON-ready record, times in seconds from `origin`. */
  def records(origin: Long): Seq[Map[String, Any]] = spans.toSeq.map { s =>
    Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
      "start_s" -> (s.start - origin) / 1e9, "end_s" -> (s.end - origin) / 1e9,
      "self_s" -> selfSeconds(s), "spark_job_s" -> sparkJobSeconds(s), "shuffle_mb" -> shuffleMb(s))
  }
}

/** Process CPU, GC time and live heap of this JVM. */
object JvmProbe {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def cpuSeconds: Double = os.getProcessCpuTime / 1e9
  def gcSeconds: Double = ManagementFactory.getGarbageCollectorMXBeans.asScala
    .map(_.getCollectionTime).filter(_ > 0).sum / 1e3

  /** Heap occupancy after a full collection: what the run still holds. */
  def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }
}

/** Minimal JSON writer for maps, sequences, strings, numbers and booleans. */
object Json {
  def apply(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => apply(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => m.toSeq.map { case (k, x) => s"${quote(k.toString)}:${apply(x)}" }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }
}
