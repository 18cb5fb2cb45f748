package perfbench

import java.io.{ObjectOutputStream, OutputStream}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.benchmark.{Benchmark, BenchmarkBuilder}
import repro.core.{Kg, KgBuilder, RawSources}
import repro.exp.LinkPred
import repro.kge.{Evaluator, KgeData, KgeDataset, KgeModel, Trainer}
import repro.synth.World
import repro.tasks._
import repro.tasks.PretrainedSim._

/** The JVM-bound layers on a KG built in set-up: the Table III roster
  * (train + filtered ranking, 11 ops) on the OpenBG-IMG analog, then the
  * downstream task cells (kge.trainer, kge.evaluator, tasks).
  */
final class Learn(spark: SparkSession, scale: Scale, tr: Tracer) extends Workload {
  private var world: World = _
  private var kg: Kg = _
  private var img: Benchmark = _
  private var data: KgeDataset = _
  private var cat: Seq[TaskData.CatExample] = _
  private var ner: Seq[TaskData.NerExample] = _
  private var gaz: Map[String, Seq[String]] = _
  private var summ: Seq[TaskData.SummExample] = _
  private var ie: Seq[TaskData.IeExample] = _
  private var attrLex: Set[String] = _
  private var sal: Seq[TaskData.SalienceExample] = _
  // Work counts of the traced pass, for the per-layer throughputs.
  private var updates, candidates = 0L
  private val models = mutable.ArrayBuffer[KgeModel]()

  val roster: Seq[String] = LinkPred.singleModalImg ++ LinkPred.multiModal

  /** The KG and the IMG benchmark: built once, before the repeated step. */
  override def prepare(): Unit = {
    world = new World(scale.synth)
    kg = KgBuilder.build(spark, RawSources.fromWorld(spark, world))
    img = BenchmarkBuilder.build(spark, kg, scale.benches.find(_._1 == "img").get._2).cache()
  }

  /** The inputs of the timed region: the collected dataset and the task
    * example sets.
    */
  def setupStep(): Unit = {
    data = tr.span("kge.data.img")(KgeData.fromBenchmark(spark, kg, img))
    tr.span("tasks.data") {
      cat = TaskData.categoryExamples(spark, world, kg)
      ner = TaskData.nerExamples(spark, world)
      gaz = TaskData.kgGazetteer(spark, kg)
      summ = TaskData.summarizationExamples(spark, world)
      ie = TaskData.ieExamples(spark, world)
      attrLex = TaskData.kgAttrLexicon(spark, kg)
      sal = TaskData.salienceExamples(spark, world, kg)
    }
  }

  /** Table V without its full-resource CatPred and NER cells of the large
    * and non-domain models, then Table VII: 26 cells. The dropped cells run
    * the same classifier loops as kept ones, on more data.
    */
  private def cells: Seq[(String, String, () => Double)] = {
    def nerp(s: SimModel, k: Option[Int]) = () => TitleNer.run(spark, ner, gaz, s, k).f
    Seq(("catpred", MplugBaseKg.name, () => CategoryPrediction.run(spark, cat, MplugBaseKg).accuracy)) ++
      Seq(Uie, MplugBase, MplugBaseKg).map(s => ("ner", s.name, nerp(s, None))) ++
      Seq(Mt5, MplugBase, MplugBaseKg, MplugLargeKg).map(s =>
        ("summ", s.name, () => TitleSummarizer.run(spark, summ, gaz, s).rougeL)) ++
      Seq(Mt5, MplugBase, MplugBaseKg, MplugLargeKg).map(s =>
        ("ie", s.name, () => ReviewIE.run(spark, ie, attrLex, s).f)) ++
      Seq(Bert, MplugBase, MplugBaseKg, MplugLargeKg).map(s =>
        ("salience", s.name, () => SalienceEvaluation.run(spark, sal, s).accuracy)) ++
      Seq(Uie, RobertaBaseKg, MplugBase, MplugBaseKg, MplugLargeKg).flatMap(s =>
        Seq(1, 5).map(k => ("ner", s"${s.name}@$k", nerp(s, Some(k)))))
  }

  def pass(ops: Ops): () => (Map[String, Map[String, Any]], Map[String, Boolean]) = {
    updates = 0L; candidates = 0L; models.clear()
    val lp = roster.map { name =>
      name -> ops(s"linkpred.$name") {
        val (model, cfg) = LinkPred.makeModel(name, data)
        tr.span(s"kge.train.$name")(Trainer.train(model, data, cfg))
        val m = tr.span(s"kge.eval.$name")(Evaluator.evaluate(spark, model, data))
        updates += cfg.epochs.toLong * data.nTrain * cfg.negPerPos
        candidates += data.testH.length.toLong * data.nEnt
        if (tr.enabled) models += model
        m
      }
    }
    val ds = cells.map { case (task, model, run) =>
      s"$task.$model" -> ops(s"$task.$model")(tr.span(s"tasks.$task.$model")(run()))
    }

    () => {
      val fps = lp.collect { case (n, Some(m)) =>
        s"linkpred.$n" -> Map[String, Any]("h1" -> m.hits1, "h3" -> m.hits3, "h10" -> m.hits10,
          "mr" -> m.mr, "mrr" -> m.mrr, "n" -> m.n)
      } ++ ds.collect { case (n, Some(v)) => n -> Map[String, Any]("value" -> v) }
      def finite(xs: Double*) = xs.forall(x => !x.isNaN && !x.isInfinite)
      val inv = lp.collect { case (n, Some(m)) =>
        s"linkpred.$n.in_range" -> (finite(m.hits1, m.hits3, m.hits10, m.mr, m.mrr) &&
          0 <= m.hits1 && m.hits1 <= m.hits3 && m.hits3 <= m.hits10 && m.hits10 <= 1 &&
          m.mr >= 1 && m.mr <= data.nEnt && m.mrr > 0 && m.mrr <= 1)
      } ++ ds.collect { case (n, Some(v)) => s"$n.in_range" -> (finite(v) && v >= 0 && v <= 1) }
      (fps.toMap, (inv ++ Fingerprint.splitInvariants("data.img", data)).toMap)
    }
  }

  /** Java-serialized size: what the evaluator broadcasts per model. */
  private def serializedBytes(o: AnyRef): Long = {
    var n = 0L
    val counter = new OutputStream {
      def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new ObjectOutputStream(counter)
    out.writeObject(o); out.close()
    n
  }

  def layers(): Map[String, Double] = {
    val trainS = tr.seconds("kge.train."); val evalS = tr.seconds("kge.eval.")
    val tasks = Seq("catpred", "ner", "summ", "ie", "salience")
    roster.map(n => s"kge.train_s.$n" -> tr.seconds(s"kge.train.$n")).toMap ++
      roster.map(n => s"kge.eval_s.$n" -> tr.seconds(s"kge.eval.$n")) ++
      Map("kge.eval.spark_job_s" -> tr.sparkJobSeconds("kge.eval."),
        "kge.eval.broadcast_mb" -> models.map(m => serializedBytes(m) + serializedBytes(data)).sum / 1e6,
        "kge.data.img_s" -> tr.seconds("kge.data.img"),
        "kge.data.spark_job_s" -> tr.sparkJobSeconds("kge.data."),
        "kge.data.shuffle_mb" -> tr.shuffleMb("kge.data."),
        "tasks.data_s" -> tr.seconds("tasks.data"),
        "sgd_updates_per_s" -> (if (trainS > 0) updates / trainS else 0.0),
        "ranked_candidates_per_s" -> (if (evalS > 0) candidates / evalS else 0.0)) ++
      tasks.map(t => s"tasks.${t}_s" -> tr.seconds(s"tasks.$t."))
  }
}
